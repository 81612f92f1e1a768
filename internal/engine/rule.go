package engine

import (
	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/symtab"
)

// ruleState is the mutable state of a rule-node process. Per §3.1, "it is
// appropriate for rule nodes to store their subgoals' temporary relations
// ... When a tuple arrives, provided it does not duplicate one already
// received, it is matched against the (partial) temporary relations of
// other subgoals to form new tuples via joins."
//
// The rule node also drives sideways information passing: whenever new
// bindings complete a prefix join up to subgoal j (in SIP order), the
// projection onto j's "d" variables is sent to j as tuple requests.
//
// Internally a rule instance's variables map to dense slots; each stored
// source (the head-binding relation plus one relation per subgoal) lists
// which slots its columns populate, and derivations enumerate matching
// slot assignments by indexed backtracking join.
type ruleState struct {
	p    *proc
	rule ast.Rule
	sip  *adorn.SIP

	slotOf map[string]int
	nslots int

	// Head request interface.
	headDPos  []int      // head argument positions of class "d"
	headDTerm []ast.Term // term at each such position
	headDSym  []symtab.Sym
	hb        *relation.Relation // distinct head d-variables, in order
	hbSlots   []int

	// Head emission.
	headCarried []ast.Term // terms at carried head positions
	headConsts  []symtab.Sym
	sentHeads   map[string]bool

	subs     []*subSource
	orderPos []int // body index → position in sip.Order (head is -1 / before all)

	relReqReceived bool
	parentReqEnd   bool
	headReqCount   int
	lastWatermark  int
	allSent        bool
	// deltaEnded latches this round's drain End (see feedState.drained);
	// reset by deltaReset.
	deltaEnded bool
}

// subSource is one subgoal's stored temporary relation plus the mappings
// between its carried argument positions, its distinct variables, and the
// rule's slots. children holds the node ids serving the subgoal — one goal
// node normally, N shard leaves when the subgoal reads a hash-partitioned
// EDB relation (tuple requests broadcast to all of them; their answer
// streams merge in rel).
type subSource struct {
	children []int
	atom     ast.Atom
	carried  []int // carried argument positions
	varCols  []string
	colSlots []int // slot of each varCol
	posCol   []int // for each carried position, its varCol index
	rel      *relation.Relation
	dPos     []int // the subgoal's "d" argument positions
	dSlots   []int // slot providing each d position's value
	sentReqs map[string]bool
	hasD     bool
}

func newRuleState(p *proc) *ruleState {
	n := p.node
	r := &ruleState{
		p:         p,
		rule:      *n.Rule,
		sip:       n.SIP,
		slotOf:    make(map[string]int),
		sentHeads: make(map[string]bool),
	}
	slot := func(v string) int {
		s, ok := r.slotOf[v]
		if !ok {
			s = r.nslots
			r.slotOf[v] = s
			r.nslots++
		}
		return s
	}

	// Head "d" interface: positions, expected constants, and the
	// head-binding relation over the distinct head d-variables.
	r.headDPos = dynamicPositions(n.Ad)
	var hbVars []string
	seen := make(map[string]bool)
	for _, pos := range r.headDPos {
		t := r.rule.Head.Args[pos]
		r.headDTerm = append(r.headDTerm, t)
		if t.IsVar() {
			r.headDSym = append(r.headDSym, symtab.NoSym)
			if !seen[t.Var] {
				seen[t.Var] = true
				hbVars = append(hbVars, t.Var)
			}
		} else {
			r.headDSym = append(r.headDSym, p.rt.db.Symbols().Intern(t.Const))
		}
	}
	r.hb = relation.New(len(hbVars))
	for _, v := range hbVars {
		r.hbSlots = append(r.hbSlots, slot(v))
	}

	// Head emission: terms at carried positions (pre-interning constants).
	for _, pos := range carriedPositions(n.Ad) {
		t := r.rule.Head.Args[pos]
		r.headCarried = append(r.headCarried, t)
		if t.IsVar() {
			r.headConsts = append(r.headConsts, symtab.NoSym)
			slot(t.Var)
		} else {
			r.headConsts = append(r.headConsts, p.rt.db.Symbols().Intern(t.Const))
		}
	}

	// Subgoal sources, in body order; orderPos records each subgoal's rank
	// in the information passing order.
	r.orderPos = make([]int, len(r.rule.Body))
	for rank, i := range r.sip.Order {
		r.orderPos[i] = rank
	}
	for i, atom := range r.rule.Body {
		ad := r.sip.SubAd[i]
		s := &subSource{
			children: bodyKids(n, i),
			atom:     atom,
			carried:  carriedPositions(ad),
			dPos:     dynamicPositions(ad),
			sentReqs: make(map[string]bool),
		}
		colIdx := make(map[string]int)
		for _, pos := range s.carried {
			v := atom.Args[pos].Var // carried positions always hold variables
			ci, ok := colIdx[v]
			if !ok {
				ci = len(s.varCols)
				colIdx[v] = ci
				s.varCols = append(s.varCols, v)
				s.colSlots = append(s.colSlots, slot(v))
			}
			s.posCol = append(s.posCol, ci)
		}
		s.rel = relation.New(len(s.varCols))
		for _, pos := range s.dPos {
			s.dSlots = append(s.dSlots, slot(atom.Args[pos].Var))
		}
		s.hasD = len(s.dPos) > 0
		r.subs = append(r.subs, s)
	}
	return r
}

// headSource is the pseudo-index denoting the head-binding relation as a
// join source.
const headSource = -1

func (r *ruleState) handle(m msg.Message) {
	switch m.Kind {
	case msg.RelReq:
		r.onRelReq()
	case msg.ReqEnd:
		r.parentReqEnd = true
	case msg.TupReq:
		eachRow(m, len(r.headDPos), r.onHeadBinding)
	case msg.Tuple:
		src := r.sourceIdx(m.From)
		eachRow(m, len(r.subs[src].carried), func(vals []symtab.Sym) {
			r.onSubTuple(src, vals)
		})
	default:
		r.p.internalf("unexpected %s", m.Kind)
	}
}

// onRelReq propagates the relation request to every subgoal. A head with no
// "d" positions has the single implicit binding (the empty one), which
// starts information passing immediately.
func (r *ruleState) onRelReq() {
	if r.relReqReceived {
		return
	}
	r.relReqReceived = true
	if r.p.wk == nil {
		// On a partitioned node the control process already forwarded the
		// relation request downstream, once on behalf of all shards.
		for _, c := range r.p.node.Children {
			r.p.send(msg.Message{Kind: msg.RelReq, To: c})
		}
	}
	if len(r.headDPos) == 0 {
		r.parentReqEnd = true
		// Insert's report gates the trigger so a delta round (which retains
		// hb across rounds) does not re-enumerate every join from the
		// implicit empty binding: new joins are triggered by the delta
		// tuples themselves as they arrive.
		if r.hb.Insert(relation.Tuple{}) {
			r.trigger(headSource, nil, nil)
		}
	}
}

// onHeadBinding validates a tuple request against the instantiated head —
// constants introduced by unification must match, repeated variables must
// agree — and, when new, triggers information passing from the head.
func (r *ruleState) onHeadBinding(vals []symtab.Sym) {
	r.headReqCount++
	row := make(relation.Tuple, r.hb.Arity())
	bound := make([]bool, r.hb.Arity())
	for i := range r.headDPos {
		t := r.headDTerm[i]
		if !t.IsVar() {
			if vals[i] != r.headDSym[i] {
				return // the rule's head constant rejects this binding
			}
			continue
		}
		ci := r.hbColOf(t.Var)
		if bound[ci] && row[ci] != vals[i] {
			return // repeated head variable bound inconsistently
		}
		row[ci], bound[ci] = vals[i], true
	}
	if r.hb.Insert(row) {
		r.trigger(headSource, r.hbSlots, row)
	}
}

func (r *ruleState) hbColOf(v string) int {
	s := r.slotOf[v]
	for i, hs := range r.hbSlots {
		if hs == s {
			return i
		}
	}
	r.p.internalf("head d-variable %s not in head-binding relation", v)
	return -1
}

// sourceIdx maps a sender's node id to its subgoal position in the body.
func (r *ruleState) sourceIdx(from int) int {
	for i, s := range r.subs {
		for _, c := range s.children {
			if c == from {
				return i
			}
		}
	}
	r.p.internalf("tuple from unknown child %d", from)
	return -2
}

// onSubTuple folds a subgoal answer into its temporary relation and, when
// new, triggers derivations and downstream requests.
func (r *ruleState) onSubTuple(src int, vals []symtab.Sym) {
	s := r.subs[src]
	row := make(relation.Tuple, len(s.varCols))
	bound := make([]bool, len(s.varCols))
	for k := range s.carried {
		ci := s.posCol[k]
		if bound[ci] && row[ci] != vals[k] {
			return // repeated variable mismatch: not a real match
		}
		row[ci], bound[ci] = vals[k], true
	}
	if s.rel.Insert(row) {
		r.trigger(src, s.colSlots, row)
	} else {
		r.p.statDup()
	}
}

// trigger runs incremental information passing after source src gained the
// assignment (cols→vals): derive any now-complete head tuples, and extend
// prefix joins into tuple requests for later subgoals.
func (r *ruleState) trigger(src int, cols []int, vals relation.Tuple) {
	slots := make([]symtab.Sym, r.nslots)
	for i, c := range cols {
		slots[c] = vals[i]
	}

	// (a) Derive head tuples: join the new assignment against every other
	// source (head bindings included, so only requested derivations
	// survive).
	sources := make([]int, 0, len(r.subs)+1)
	if src != headSource {
		sources = append(sources, headSource)
	}
	for _, i := range r.sip.Order {
		if i != src {
			sources = append(sources, i)
		}
	}
	r.enumerate(sources, 0, slots, r.emitHead)

	// (b) Sideways information passing: for each subgoal j with "d"
	// arguments strictly after src, project the prefix join onto j's d
	// variables and request the new bindings.
	prefix := make([]int, 0, len(r.subs)+1)
	for _, j := range r.sip.Order {
		if !r.subs[j].hasD || j == src {
			continue
		}
		if src != headSource && r.orderPos[src] >= r.orderPos[j] {
			continue
		}
		prefix = prefix[:0]
		if src != headSource {
			prefix = append(prefix, headSource)
		}
		for _, k := range r.sip.Order {
			if r.orderPos[k] >= r.orderPos[j] {
				break
			}
			if k != src {
				prefix = append(prefix, k)
			}
		}
		if src == headSource && len(prefix) == 0 && r.p.wk != nil && r.p.wk.idx > 0 {
			// Worker shard of a partitioned rule: a request derived from the
			// head binding alone (no supporting subgoal rows) is identical
			// in every shard — head bindings are replicated — so only worker
			// 0 sends it. Requests below depend on at least one stored row
			// and are naturally disjoint across shards.
			continue
		}
		r.enumerate(prefix, 0, slots, func(sl []symtab.Sym) {
			r.requestSub(j, sl)
		})
	}
}

// requestSub sends subgoal j one tuple request for the d-binding read from
// the slots, unless already sent.
func (r *ruleState) requestSub(j int, slots []symtab.Sym) {
	s := r.subs[j]
	vals := make(relation.Tuple, len(s.dPos))
	for i, sl := range s.dSlots {
		vals[i] = slots[sl]
	}
	key := vals.Key()
	if s.sentReqs[key] {
		return
	}
	s.sentReqs[key] = true
	// A partitioned EDB subgoal has one child per shard; each holds a hash
	// slice of the relation, so the request goes to all of them and the
	// matching slices merge back in s.rel.
	for _, c := range s.children {
		r.p.queueTupReq(c, vals)
	}
}

// emitHead sends one derived head tuple to the parent goal node.
func (r *ruleState) emitHead(slots []symtab.Sym) {
	vals := make(relation.Tuple, len(r.headCarried))
	for i, t := range r.headCarried {
		if t.IsVar() {
			vals[i] = slots[r.slotOf[t.Var]]
		} else {
			vals[i] = r.headConsts[i]
		}
	}
	r.p.statDerived()
	key := vals.Key()
	if r.sentHeads[key] {
		return
	}
	r.sentHeads[key] = true
	r.p.queueTuple(r.p.node.Parent, vals)
}

// enumerate extends the slot assignment with one matching row from each
// listed source, backtracking through the relations' hash indexes, and
// yields every complete extension.
func (r *ruleState) enumerate(sources []int, depth int, slots []symtab.Sym, yield func([]symtab.Sym)) {
	if depth == len(sources) {
		yield(slots)
		return
	}
	var rel *relation.Relation
	var colSlots []int
	if sources[depth] == headSource {
		rel, colSlots = r.hb, r.hbSlots
	} else {
		s := r.subs[sources[depth]]
		rel, colSlots = s.rel, s.colSlots
	}
	binding := make(relation.Binding, len(colSlots))
	for i, sl := range colSlots {
		binding[i] = slots[sl] // NoSym when the slot is unset
	}
	rows := rel.Select(binding)
	r.p.statJoins(len(rows))
	for _, row := range rows {
		var set []int
		ok := true
		for i, sl := range colSlots {
			if slots[sl] == symtab.NoSym {
				slots[sl] = row[i]
				set = append(set, sl)
			} else if slots[sl] != row[i] {
				ok = false
				break
			}
		}
		if ok {
			r.enumerate(sources, depth+1, slots, yield)
		}
		for _, sl := range set {
			slots[sl] = symtab.NoSym
		}
	}
}

// maybeEnd implements non-recursive completion for rule nodes: settled once
// every cross-component subgoal has serviced all forwarded requests. See
// goalState.maybeEnd for the mirror logic.
func (r *ruleState) maybeEnd() {
	if !r.relReqReceived || !r.p.box.Empty() || !r.p.feedersSettled() {
		return
	}
	final := r.parentReqEnd && !r.allSent
	drain := r.p.rt.delta && !r.deltaEnded
	if r.headReqCount > r.lastWatermark || final || drain {
		r.p.send(msg.Message{Kind: msg.End, To: r.p.node.Parent, N: r.headReqCount, All: r.parentReqEnd})
		r.lastWatermark = r.headReqCount
		r.deltaEnded = true
		if r.parentReqEnd {
			r.allSent = true
		}
	}
}
