package engine

import (
	"time"

	"repro/internal/msg"
	"repro/internal/relation"
	"repro/internal/rgg"
	"repro/internal/symtab"
)

// goalState is the mutable state of a goal-node process. Three flavors
// share it, distinguished at construction: ordinary IDB goal nodes (union
// of rule children, per-customer answer streams), EDB leaves (selection
// against the base relation), and variant nodes (selection on an ancestor's
// relation through a cycle edge).
//
// Per §3.1, "goal nodes store their temporary relations, and only forward
// answer tuples that are genuinely new", and "a goal node with multiple
// out-edges needs to furnish answers in separate streams to each successor
// node" — different successors will have requested different subsets.
type goalState struct {
	p *proc

	dPos    []int // argument positions of class "d"
	carried []int // argument positions whose values travel in tuples
	dIdx    []int // index of each dPos within carried

	customers map[int]*customerState

	relReqForwarded bool
	reqSeen         *relation.Relation // d-bindings already forwarded/serviced
	answers         *relation.Relation

	// Scratch reused across handler calls; see onTupReq, onTuple and
	// serviceEDB.
	dBuf     relation.Tuple
	dSel     relation.Binding
	rows     []relation.Tuple
	binding  relation.Binding
	carryBuf relation.Tuple

	// EDB leaves.
	isEDB bool
	// edbRel is non-nil only for SLICED leaves (EDB shards, worker shards):
	// a private relation holding exactly this leaf's hash slice of the base
	// relation. Plain leaves leave it nil and scan the store directly, so a
	// predicate with no facts at plan time picks up rows as they arrive.
	edbRel  *relation.Relation
	consts  relation.Binding // constant positions, pre-interned
	repeats [][]int          // positions of each variable occurring twice or more
	// seenBase is the base-relation cardinality this leaf has absorbed:
	// ordinals [seenBase:] are the next delta window (Incremental rounds),
	// streamed from the store with ScanSince.
	seenBase int

	// Variant nodes.
	cycleTo int

	// Non-recursive end bookkeeping (single customer).
	lastWatermark int
	allSent       bool
}

// customerState is the per-successor view: which tuple requests this
// customer has issued (so answers can be filtered into its stream), how
// many, and whether it has promised to send no more.
type customerState struct {
	id         int
	registered bool
	reqs       *relation.Relation // nil at a partitioned node's control process
	reqCount   int
	reqEnd     bool
	// deltaEnded latches this round's drain End (see feedState.drained);
	// reset by deltaReset.
	deltaEnded bool
}

func newGoalState(p *proc) *goalState {
	n := p.node
	g := &goalState{
		p:         p,
		dPos:      dynamicPositions(n.Ad),
		carried:   carriedPositions(n.Ad),
		customers: make(map[int]*customerState),
		cycleTo:   n.CycleTo,
		isEDB:     n.EDB,
	}
	g.answers = relation.New(len(g.carried))
	g.reqSeen = relation.New(len(g.dPos))
	g.dBuf = make(relation.Tuple, len(g.dPos))
	g.dSel = make(relation.Binding, len(g.carried))
	g.carryBuf = make(relation.Tuple, len(g.carried))
	idx := make(map[int]int, len(g.carried))
	for i, pos := range g.carried {
		idx[pos] = i
	}
	for _, pos := range g.dPos {
		g.dIdx = append(g.dIdx, idx[pos])
	}
	if g.isEDB {
		key := n.Atom.Key()
		g.seenBase = p.rt.db.Cardinality(key)
		if n.EDBShardOf > 1 || (p.wk != nil && len(g.dPos) > 0) {
			// Sliced leaf — an EDB shard of a hash-partitioned base relation
			// (requests are broadcast to all shards, so the union of the
			// slices answers each request) and/or a worker shard keeping
			// only the rows whose "d" projection hashes to this worker
			// (tuple requests are routed by the same hash of the same
			// projection in partState.onTupReq). Materialize the slice once
			// by scanning the store; ownsRow applies both hash filters.
			slice := relation.New(len(n.Atom.Args))
			for row := range p.rt.db.Scan(key, nil) {
				if g.ownsRow(row) {
					slice.Insert(row)
				}
			}
			g.edbRel = slice
		}
		g.consts = make(relation.Binding, len(n.Atom.Args))
		poses := make(map[string][]int) // variable → its argument positions
		for i, t := range n.Atom.Args {
			if t.IsVar() {
				poses[t.Var] = append(poses[t.Var], i)
			} else {
				g.consts[i] = p.rt.db.Symbols().Intern(t.Const)
			}
		}
		for _, ps := range poses {
			if len(ps) > 1 {
				g.repeats = append(g.repeats, ps)
			}
		}
		g.binding = make(relation.Binding, len(n.Atom.Args))
	}
	return g
}

// repeatsAgree reports whether an EDB row agrees on every repeated
// variable of the leaf's atom.
func (g *goalState) repeatsAgree(row relation.Tuple) bool {
	for _, poses := range g.repeats {
		for _, pos := range poses[1:] {
			if row[pos] != row[poses[0]] {
				return false
			}
		}
	}
	return true
}

func (g *goalState) customer(id int) *customerState {
	cs, ok := g.customers[id]
	if !ok {
		cs = &customerState{id: id, reqs: relation.New(len(g.dPos))}
		g.customers[id] = cs
	}
	return cs
}

func (g *goalState) handle(m msg.Message) {
	switch m.Kind {
	case msg.RelReq:
		g.onRelReq(m)
	case msg.TupReq:
		eachRow(m, len(g.dPos), func(vals []symtab.Sym) { g.onTupReq(m.From, vals) })
	case msg.Tuple:
		eachRow(m, len(g.carried), g.onTuple)
	case msg.ReqEnd:
		g.customer(m.From).reqEnd = true
	default:
		g.p.internalf("unexpected %s", m.Kind)
	}
}

// onRelReq registers the customer and, on the first relation request,
// propagates the request tree-downward (or across the cycle edge). A node
// with no "d" positions has a single implicit request, so the relation
// request doubles as the request-end.
func (g *goalState) onRelReq(m msg.Message) {
	cs := g.customer(m.From)
	fresh := !cs.registered
	cs.registered = true
	if len(g.dPos) == 0 {
		cs.reqEnd = true
		// A late-registering customer receives everything already stored.
		// This precedes any servicing below so the triggering customer is
		// not sent fresh answers twice (once here, once on arrival). On a
		// delta round the customer re-registers but already received the
		// store in earlier rounds, so the replay is skipped (fresh=false:
		// registrations survive deltaReset).
		if fresh {
			for _, t := range g.answers.Rows() {
				g.p.queueTuple(cs.id, t)
			}
		}
	}
	if !g.relReqForwarded {
		g.relReqForwarded = true
		switch {
		case g.p.wk != nil:
			// Worker shard of a partitioned goal: the control process
			// already forwarded the relation request downstream, once on
			// behalf of all shards. An EDB worker still seeds its slice of
			// the delta window on delta rounds.
			if g.p.rt.delta && g.isEDB {
				g.serviceEDBDelta()
			}
		case g.cycleTo != rgg.NoNode:
			g.p.send(msg.Message{Kind: msg.RelReq, To: g.cycleTo})
		case g.isEDB:
			if g.p.rt.delta {
				g.serviceEDBDelta()
			} else if len(g.dPos) == 0 {
				g.serviceEDB(nil)
			}
		default:
			for _, c := range g.p.node.Children {
				g.p.send(msg.Message{Kind: msg.RelReq, To: c})
			}
		}
	}
}

// onTupReq records the customer's binding, replays stored matching answers
// into its stream, and forwards the binding once to whoever computes this
// relation.
func (g *goalState) onTupReq(from int, vals []symtab.Sym) {
	cs := g.customer(from)
	cs.reqCount++
	if cs.reqs.Insert(vals) {
		// Replay the stored answers under this binding: a selection on the
		// d columns, through an index the answers relation maintains on
		// every insert.
		for i, k := range g.dIdx {
			g.dSel[k] = vals[i]
		}
		g.rows = g.answers.AppendSelect(g.rows[:0], g.dSel)
		for _, t := range g.rows {
			g.p.queueTuple(cs.id, t)
		}
	}
	if !g.reqSeen.Insert(vals) {
		return
	}
	switch {
	case g.cycleTo != rgg.NoNode:
		g.p.queueTupReq(g.cycleTo, vals)
	case g.isEDB:
		g.serviceEDB(vals)
	default:
		for _, c := range g.p.node.Children {
			g.p.queueTupReq(c, vals)
		}
	}
}

// onTuple stores a (new) answer and fans it out to every customer whose
// request set covers it. Variant nodes are the paper's "trivial goal nodes
// ... exempt" from storing: they just relay the ancestor's stream.
func (g *goalState) onTuple(vals []symtab.Sym) {
	if g.cycleTo != rgg.NoNode {
		g.p.queueTuple(g.p.customerID(), vals)
		return
	}
	t := relation.Tuple(vals)
	if !g.answers.Insert(t) {
		g.p.statDup()
		return
	}
	g.p.statStored()
	stored := lastRow(g.answers) // the engine-owned copy
	for i, k := range g.dIdx {
		g.dBuf[i] = stored[k]
	}
	for _, cs := range g.customers {
		if !cs.registered {
			continue
		}
		if len(g.dPos) == 0 || cs.reqs.Contains(g.dBuf) {
			g.p.queueTuple(cs.id, stored)
		}
	}
}

// serviceEDB answers one tuple request (or the implicit request when vals
// is nil) by selection against the base relation: constant positions and
// "d" bindings select, repeated variables filter, and the projection to the
// carried positions drops existential values.
func (g *goalState) serviceEDB(vals []symtab.Sym) {
	atom := g.p.node.Atom
	binding := g.binding
	copy(binding, g.consts)
	for i, pos := range g.dPos {
		if binding[pos] != symtab.NoSym && binding[pos] != vals[i] {
			return // repeated d-variable bound inconsistently: no matches
		}
		binding[pos] = vals[i]
	}
	g.p.statEDBScan()
	if d := g.p.rt.edbDelay; d > 0 {
		time.Sleep(d) // simulated retrieval latency (see Options.EDBDelay)
	}
	matched := 0
	if g.edbRel != nil {
		g.rows = g.edbRel.AppendSelect(g.rows[:0], binding)
		matched = len(g.rows)
		for _, row := range g.rows {
			if g.repeatsAgree(row) {
				g.deliverEDB(row)
			}
		}
	} else {
		for row := range g.p.rt.db.Scan(atom.Key(), binding) {
			matched++
			if g.repeatsAgree(row) {
				g.deliverEDB(row)
			}
		}
	}
	g.p.statEDBTuples(matched)
}

// deliverEDB projects a selected base row onto the carried positions and
// folds it into the answer store, which dedups (the projection may
// collapse rows that differ only existentially) and streams it to the
// customers.
func (g *goalState) deliverEDB(row relation.Tuple) {
	for i, pos := range g.carried {
		g.carryBuf[i] = row[pos]
	}
	g.onTuple(g.carryBuf)
}

// serviceEDBDelta seeds one delta round at an EDB leaf: the base-relation
// rows appended since the previous round (the Δ window) are filtered and
// delivered exactly as serviceEDB would have, but without rescanning the
// rows every earlier round already absorbed.
//
// Free-access leaves (no "d" positions) deliver every surviving window row.
// Bound-access leaves deliver only rows whose d-projection was already
// requested (g.reqSeen): a row under a never-requested binding is not part
// of any answer yet — it waits in the relation and is found by the ordinary
// Select when its binding first arrives. Leaves holding a private slice
// (EDB shard leaves, worker shards, predicates with no facts at plan time)
// fold their share of the window into the slice first, so those later
// Selects observe it.
// ownsRow applies the hash filters that carve this leaf's slice out of the
// base relation: the EDB-shard filter (hash-partitioned base relations) and
// the worker-shard filter (the d-projection routing of partState.onTupReq).
// Plain leaves own every row.
func (g *goalState) ownsRow(row relation.Tuple) bool {
	n := g.p.node
	if n.EDBShardOf > 1 && int(relation.HashTuple(row)%uint64(n.EDBShardOf)) != n.EDBShard {
		return false
	}
	if g.p.wk != nil && len(g.dPos) > 0 &&
		int(relation.HashTupleAt(row, g.dPos)%uint64(g.p.wk.ps.spec.n)) != g.p.wk.idx {
		return false
	}
	return true
}

// refreshEDBSlice folds base-relation rows appended since this leaf's
// seenBase watermark into its private slice. Shard and worker leaves hold
// a slice; plain leaves scan the store directly and only advance the
// watermark. Called from reset() strictly between pooled evaluations, so
// the inserts race no readers. Delta rounds do the same fold inline in
// serviceEDBDelta (an Incremental's procs are never reset()).
func (g *goalState) refreshEDBSlice() {
	key := g.p.node.Atom.Key()
	from := g.seenBase
	total := g.p.rt.db.Cardinality(key)
	g.seenBase = total
	if g.edbRel == nil || from >= total {
		return
	}
	for row := range g.p.rt.db.ScanSince(key, from) {
		if g.ownsRow(row) {
			g.edbRel.Insert(row)
		}
	}
}

func (g *goalState) serviceEDBDelta() {
	n := g.p.node
	from := g.seenBase
	total := g.p.rt.db.Cardinality(n.Atom.Key())
	g.seenBase = total
	if from >= total {
		return
	}
	g.p.statEDBScan()
	if d := g.p.rt.edbDelay; d > 0 {
		time.Sleep(d) // one simulated retrieval for the whole window
	}
	sliced := g.edbRel != nil
	owned, seeded := 0, 0
window:
	for row := range g.p.rt.db.ScanSince(n.Atom.Key(), from) {
		if !g.ownsRow(row) {
			continue
		}
		owned++
		if sliced {
			g.edbRel.Insert(row)
		}
		for i, sym := range g.consts {
			if sym != symtab.NoSym && row[i] != sym {
				continue window
			}
		}
		if !g.repeatsAgree(row) {
			continue
		}
		if len(g.dPos) > 0 {
			for i, pos := range g.dPos {
				g.dBuf[i] = row[pos]
			}
			if !g.reqSeen.Contains(g.dBuf) {
				continue
			}
		}
		seeded++
		g.deliverEDB(row)
	}
	g.p.statEDBTuples(owned)
	g.p.rt.stats.DeltaSeeded(int64(seeded))
}

// maybeEnd implements non-recursive completion: once every cross-component
// child has serviced everything forwarded to it, the watermark advances to
// the customer; once the customer has also promised no more requests, the
// final End{All} goes out. Recursive nodes never reach here (the Fig 2
// protocol governs them); see proc.after.
func (g *goalState) maybeEnd() {
	if !g.p.box.Empty() || !g.p.feedersSettled() {
		return
	}
	cs, ok := g.customers[g.p.customerID()]
	if !ok || !cs.registered {
		return
	}
	g.emitEnd(cs)
}

// confirmedEnd is invoked on the component leader when a protocol round
// confirms quiescence: everything requested so far is complete, so the
// leader advances its customer's watermark (Theorem 3.1's "end message").
func (g *goalState) confirmedEnd() {
	cs, ok := g.customers[g.p.customerID()]
	if !ok || !cs.registered {
		return
	}
	g.emitEnd(cs)
}

func (g *goalState) emitEnd(cs *customerState) {
	final := cs.reqEnd && !g.allSent
	drain := g.p.rt.delta && !cs.deltaEnded
	if cs.reqCount > g.lastWatermark || final || drain {
		g.p.send(msg.Message{Kind: msg.End, To: cs.id, N: cs.reqCount, All: cs.reqEnd})
		g.lastWatermark = cs.reqCount
		cs.deltaEnded = true
		if cs.reqEnd {
			g.allSent = true
		}
	}
}
