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
// slot assignments by indexed backtracking join. Everything a message
// handler needs beyond the stored relations is precomputed or held in
// per-node scratch buffers, so handling a duplicate costs no allocation.
type ruleState struct {
	p    *proc
	rule ast.Rule
	sip  *adorn.SIP

	// Head request interface, one entry per head "d" position: its
	// constant (NoSym for a variable) and, for a variable, its hb column.
	headDSym []symtab.Sym
	headDCol []int
	hb       *relation.Relation // distinct head d-variables, in order
	hbSlots  []int

	// Head emission: carried head positions hold a variable (its slot) or
	// a constant (headConsts, slot -1). sentHeads holds every head tuple
	// already sent to the parent.
	headSlots  []int
	headConsts []symtab.Sym
	sentHeads  *relation.Relation

	subs     []*subSource
	orderPos []int // body index → position in sip.Order (head is -1 / before all)

	// Per-source trigger plans, indexed by source+1 (the head first):
	// derive lists the sources a new row joins against to derive head
	// tuples, passes the SIP requests it extends.
	derive [][]int
	passes [][]sipPass

	// Scratch reused by every handler call.
	slots  []symtab.Sym
	row    relation.Tuple // onHeadBinding / onSubTuple / emitHead / requestSub
	frames []enumFrame    // one per enumerate depth

	relReqReceived bool
	parentReqEnd   bool
	headReqCount   int
	lastWatermark  int
	allSent        bool
	// deltaEnded latches this round's drain End (see feedState.drained);
	// reset by deltaReset.
	deltaEnded bool
}

// sipPass is one sideways information pass of a trigger: the join of the
// prefix sources is projected onto subgoal j's "d" variables.
type sipPass struct {
	j      int
	prefix []int
}

// enumFrame is enumerate's scratch at one depth: the probe binding and
// the matching rows.
type enumFrame struct {
	binding relation.Binding
	rows    []relation.Tuple
}

// subSource is one subgoal's stored temporary relation plus the mappings
// between its carried argument positions, its distinct variables, and the
// rule's slots. children holds the node ids serving the subgoal — one goal
// node normally, N shard leaves when the subgoal reads a hash-partitioned
// EDB relation (tuple requests broadcast to all of them; their answer
// streams merge in rel).
type subSource struct {
	children []int
	colSlots []int // slot of each distinct variable column
	posCol   []int // column of each carried argument position
	rel      *relation.Relation
	dSlots   []int              // slot providing each "d" position's value
	sentReqs *relation.Relation // d-bindings already requested
}

func newRuleState(p *proc) *ruleState {
	n := p.node
	r := &ruleState{
		p:    p,
		rule: *n.Rule,
		sip:  n.SIP,
	}
	slotOf := make(map[string]int)
	slot := func(v string) int {
		s, ok := slotOf[v]
		if !ok {
			s = len(slotOf)
			slotOf[v] = s
		}
		return s
	}
	intern := func(t ast.Term) symtab.Sym { return p.rt.db.Symbols().Intern(t.Const) }

	// Head "d" interface: positions, expected constants, and the
	// head-binding relation over the distinct head d-variables.
	hbCol := make(map[string]int)
	for _, pos := range dynamicPositions(n.Ad) {
		t := r.rule.Head.Args[pos]
		if !t.IsVar() {
			r.headDSym = append(r.headDSym, intern(t))
			r.headDCol = append(r.headDCol, -1)
			continue
		}
		ci, ok := hbCol[t.Var]
		if !ok {
			ci = len(r.hbSlots)
			hbCol[t.Var] = ci
			r.hbSlots = append(r.hbSlots, slot(t.Var))
		}
		r.headDSym = append(r.headDSym, symtab.NoSym)
		r.headDCol = append(r.headDCol, ci)
	}
	r.hb = relation.New(len(r.hbSlots))

	// Head emission: slots of carried variables, pre-interned constants.
	for _, pos := range carriedPositions(n.Ad) {
		t := r.rule.Head.Args[pos]
		if t.IsVar() {
			r.headSlots = append(r.headSlots, slot(t.Var))
			r.headConsts = append(r.headConsts, symtab.NoSym)
		} else {
			r.headSlots = append(r.headSlots, -1)
			r.headConsts = append(r.headConsts, intern(t))
		}
	}
	r.sentHeads = relation.New(len(r.headSlots))
	width := max(len(r.hbSlots), len(r.headSlots))

	// Subgoal sources, in body order; orderPos records each subgoal's rank
	// in the information passing order.
	r.orderPos = make([]int, len(r.rule.Body))
	for rank, i := range r.sip.Order {
		r.orderPos[i] = rank
	}
	for i, atom := range r.rule.Body {
		ad := r.sip.SubAd[i]
		s := &subSource{children: bodyKids(n, i)}
		colIdx := make(map[string]int)
		for _, pos := range carriedPositions(ad) {
			v := atom.Args[pos].Var // carried positions always hold variables
			ci, ok := colIdx[v]
			if !ok {
				ci = len(s.colSlots)
				colIdx[v] = ci
				s.colSlots = append(s.colSlots, slot(v))
			}
			s.posCol = append(s.posCol, ci)
		}
		s.rel = relation.New(len(s.colSlots))
		for _, pos := range dynamicPositions(ad) {
			s.dSlots = append(s.dSlots, slot(atom.Args[pos].Var))
		}
		s.sentReqs = relation.New(len(s.dSlots))
		width = max(width, len(s.colSlots), len(s.dSlots))
		r.subs = append(r.subs, s)
	}

	for src := headSource; src < len(r.subs); src++ {
		r.derive = append(r.derive, r.deriveSources(src))
		r.passes = append(r.passes, r.sipPasses(src))
	}
	r.slots = make([]symtab.Sym, len(slotOf))
	r.row = make(relation.Tuple, width)
	r.frames = make([]enumFrame, len(r.subs)+1)
	return r
}

// deriveSources lists the sources a new row of src joins against to derive
// head tuples: every other source, head bindings included (so only
// requested derivations survive), in information passing order.
func (r *ruleState) deriveSources(src int) []int {
	var sources []int
	if src != headSource {
		sources = append(sources, headSource)
	}
	for _, i := range r.sip.Order {
		if i != src {
			sources = append(sources, i)
		}
	}
	return sources
}

// sipPasses lists the sideways information passes a new row of src
// extends: each subgoal j with "d" arguments strictly after src, with the
// sources of the prefix join projected onto j's d variables.
func (r *ruleState) sipPasses(src int) []sipPass {
	var passes []sipPass
	for _, j := range r.sip.Order {
		if len(r.subs[j].dSlots) == 0 || j == src {
			continue
		}
		if src != headSource && r.orderPos[src] >= r.orderPos[j] {
			continue
		}
		var prefix []int
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
		passes = append(passes, sipPass{j: j, prefix: prefix})
	}
	return passes
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
		eachRow(m, len(r.headDCol), r.onHeadBinding)
	case msg.Tuple:
		src := r.sourceIdx(m.From)
		eachRow(m, len(r.subs[src].posCol), func(vals []symtab.Sym) {
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
	if len(r.headDCol) == 0 {
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
	row := r.row[:len(r.hbSlots)]
	clear(row) // NoSym: column not yet bound
	for i, ci := range r.headDCol {
		if ci < 0 {
			if vals[i] != r.headDSym[i] {
				return // the rule's head constant rejects this binding
			}
			continue
		}
		if row[ci] != symtab.NoSym && row[ci] != vals[i] {
			return // repeated head variable bound inconsistently
		}
		row[ci] = vals[i]
	}
	if r.hb.Insert(row) {
		r.trigger(headSource, r.hbSlots, row)
	}
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
	row := r.row[:len(s.colSlots)]
	clear(row) // NoSym: column not yet bound
	for k, ci := range s.posCol {
		if row[ci] != symtab.NoSym && row[ci] != vals[k] {
			return // repeated variable mismatch: not a real match
		}
		row[ci] = vals[k]
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
	clear(r.slots)
	for i, c := range cols {
		r.slots[c] = vals[i]
	}
	// (a) Derive head tuples by joining the new assignment against every
	// other source.
	r.enumerate(r.derive[src+1], 0, headSource)
	// (b) Sideways information passing: project each prefix join onto the
	// later subgoal's d variables and request the new bindings.
	for _, ps := range r.passes[src+1] {
		r.enumerate(ps.prefix, 0, ps.j)
	}
}

// requestSub sends subgoal j one tuple request for the d-binding read from
// the slots, unless already sent.
func (r *ruleState) requestSub(j int) {
	s := r.subs[j]
	vals := r.row[:len(s.dSlots)]
	for i, sl := range s.dSlots {
		vals[i] = r.slots[sl]
	}
	if !s.sentReqs.Insert(vals) {
		return
	}
	// A partitioned EDB subgoal has one child per shard; each holds a hash
	// slice of the relation, so the request goes to all of them and the
	// matching slices merge back in s.rel.
	for _, c := range s.children {
		r.p.queueTupReq(c, lastRow(s.sentReqs))
	}
}

// emitHead sends one derived head tuple to the parent goal node, unless
// already sent.
func (r *ruleState) emitHead() {
	vals := r.row[:len(r.headSlots)]
	for i, sl := range r.headSlots {
		if sl >= 0 {
			vals[i] = r.slots[sl]
		} else {
			vals[i] = r.headConsts[i]
		}
	}
	r.p.statDerived()
	if r.sentHeads.Insert(vals) {
		r.p.queueTuple(r.p.node.Parent, lastRow(r.sentHeads))
	}
}

// lastRow returns the relation-owned copy of the row just inserted. It is
// stable until the relation is Reset, which happens only between runs, so
// it can travel as a message's Vals.
func lastRow(rel *relation.Relation) relation.Tuple {
	return rel.Rows()[rel.Len()-1]
}

// enumerate extends the slot assignment with one matching row from each
// listed source, backtracking through the relations' hash indexes. Every
// complete extension goes to emitHead when target is headSource, else to
// requestSub(target).
func (r *ruleState) enumerate(sources []int, depth, target int) {
	if depth == len(sources) {
		if target == headSource {
			r.emitHead()
		} else {
			r.requestSub(target)
		}
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
	f := &r.frames[depth]
	f.binding = f.binding[:0]
	for _, sl := range colSlots {
		f.binding = append(f.binding, r.slots[sl]) // NoSym when the slot is unset
	}
	// The selection already agrees with every set slot, so each row only
	// fills the unset ones; they are cleared again once all rows are done.
	f.rows = rel.AppendSelect(f.rows[:0], f.binding)
	r.p.statJoins(len(f.rows))
	for _, row := range f.rows {
		for i, sl := range colSlots {
			if f.binding[i] == symtab.NoSym {
				r.slots[sl] = row[i]
			}
		}
		r.enumerate(sources, depth+1, target)
	}
	for i, sl := range colSlots {
		if f.binding[i] == symtab.NoSym {
			r.slots[sl] = symtab.NoSym
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
