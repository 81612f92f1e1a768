package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/adorn"
	"repro/internal/msg"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/transport"
)

// proc is one node process. It owns its mailbox and all mutable state; the
// only interaction with other processes is rt.send. The behavior dispatch
// is by node kind: goal nodes (including EDB leaves and variant nodes with
// cycle edges) live in goal.go, rule nodes in rule.go; the strong-component
// termination protocol below is shared.
type proc struct {
	rt   *runner
	id   int
	node *rgg.Node
	box  *transport.Mailbox

	// shard is this node's profile counter shard, nil unless
	// Options.Profile is set. Hooks that attribute work to a node
	// (statDerived, statJoins, ...) update it alongside the aggregate
	// stats; rt.send attributes sent messages by m.From.
	shard *trace.NodeShard

	// recursive is true when the node belongs to a nontrivial strong
	// component; such nodes run the Fig 2 protocol instead of sending
	// per-edge end messages on internal edges.
	recursive bool
	isLeader  bool
	leaderID  int
	// bfstChildren are the protocol children; bfstParent is the protocol
	// parent (valid for non-leader members).
	bfstChildren []int
	bfstParent   int

	// feeds tracks each cross-component child edge for the watermark
	// accounting: feeds[childID].
	feeds map[int]*feedState

	// Protocol state (§3.2, Fig 2).
	idleness   int
	round      int  // current round number at this node
	waitingFor int  // outstanding child answers in the current round
	anyNeg     bool // some child answered negative this round
	inRound    bool // leader: a round is active
	confirmed  bool // leader: the last round confirmed quiescence

	// Kind-specific state.
	goal *goalState
	rule *ruleState

	// part is set on the control process of a hash-partitioned node (the
	// goal/rule state then lives in the workers); wk is set on a worker
	// shard proc (which runs workerLoop, not loop). Both nil on an ordinary
	// node process. See shard.go.
	part *partState
	wk   *workerCtx

	// pending buffers outgoing tuple requests per child and pendTups
	// buffers outgoing tuples per destination (and, for partitioned
	// receivers, per worker shard — each shard still receives one frame per
	// drain), when footnote 2's batching is enabled. Both are flushed at
	// mailbox-drain boundaries and before any termination-protocol message
	// is handled, so completion logic never observes a state with
	// undelivered buffered traffic.
	pending  map[int]*reqBatch
	pendTups map[destShard]*reqBatch
}

// destShard keys the tuple batching buffer: destination node plus worker
// shard (0 = control mailbox).
type destShard struct {
	dest  int
	shard int32
}

// reqBatch accumulates concatenated same-width rows for one destination
// (d-bindings of packaged tuple requests, or carried rows of tuple batches).
type reqBatch struct {
	vals  []symtab.Sym
	count int
}

// feedState is the customer's view of one cross-component child: how many
// tuple requests were sent and how many the child has acknowledged as fully
// serviced. Children without "d" positions have one implicit request,
// completed by End{All}.
//
// sent is atomic because the worker shards of a partitioned node share
// their control process's feeds map: workers add at queue time — before
// the request can possibly reach the child — so acked (written only by the
// control process, which alone receives End) can never overtake a count
// that was not yet visible, and settled() stays conservative.
type feedState struct {
	hasD   bool
	sent   atomic.Int64
	acked  int
	allEnd bool
	// drained marks that the child has sent at least one End this delta
	// round. Delta rounds push new base tuples upward without any request
	// carrying them, so the request watermark alone cannot tell "nothing
	// outstanding" from "the delta has not arrived yet": each node emits
	// one End per delta round once its own subtree has drained, and a
	// customer treats a feeder as settled only after seeing it (FIFO
	// delivery puts the End behind every delta tuple the child pushed).
	// Ignored outside delta rounds; reset by deltaReset.
	drained bool
}

func (f *feedState) settled() bool {
	if f.hasD {
		return int64(f.acked) >= f.sent.Load()
	}
	return f.allEnd
}

func newProc(rt *runner, id int, box *transport.Mailbox) *proc {
	n := rt.g.Nodes[id]
	p := &proc{rt: rt, id: id, node: n, box: box, feeds: make(map[int]*feedState)}
	if rt.prof != nil {
		p.shard = rt.prof.Shard(id)
	}
	p.recursive = rt.g.Recursive(id)
	if p.recursive {
		p.leaderID = rt.g.Leader[n.SCC]
		p.isLeader = p.leaderID == id
		p.bfstChildren = n.BFSTChildren
		if !p.isLeader {
			p.bfstParent = n.Parent
		} else {
			p.bfstParent = rgg.NoNode
		}
	}
	for _, c := range n.Children {
		if rt.g.Nodes[c].SCC != n.SCC {
			p.feeds[c] = &feedState{hasD: hasDynamic(childAdornment(rt.g, c))}
		}
	}
	if sp := rt.partSpec(id); sp != nil {
		// Partitioned node: the goal/rule state lives in the worker shards
		// (which share p.feeds); this proc is the control process.
		p.part = newPartState(p, sp)
		return p
	}
	switch n.Kind {
	case rgg.Goal:
		p.goal = newGoalState(p)
	case rgg.Rule:
		p.rule = newRuleState(p)
	}
	return p
}

// childAdornment returns the adornment governing requests to child c: a
// rule node inherits its parent goal's adornment; goal nodes carry their
// own.
func childAdornment(g *rgg.Graph, c int) adorn.Adornment {
	return g.Nodes[c].Ad
}

func hasDynamic(ad adorn.Adornment) bool {
	for _, c := range ad {
		if c == adorn.Dynamic {
			return true
		}
	}
	return false
}

// carriedPositions returns the argument positions whose values travel in
// tuple messages: every class except existential (§2.2).
func carriedPositions(ad adorn.Adornment) []int {
	var out []int
	for i, c := range ad {
		if c.Carried() && c != adorn.Const {
			out = append(out, i)
		}
	}
	return out
}

// dynamicPositions returns the positions of class "d".
func dynamicPositions(ad adorn.Adornment) []int {
	var out []int
	for i, c := range ad {
		if c == adorn.Dynamic {
			out = append(out, i)
		}
	}
	return out
}

// loop is the process body: receive, handle, flush batched output at
// mailbox-drain boundaries, then re-evaluate completion.
//
// The flush discipline is what keeps batching protocol-transparent: buffered
// rows are flushed (a) before handling any termination-protocol message, so
// an idleness probe never observes a node holding undelivered traffic, and
// (b) whenever the mailbox drains, which always precedes after() — the only
// place End messages and protocol rounds originate. Hence every buffered
// tuple reaches the channel before any End that covers it (per-sender FIFO
// does the rest), and emptyQueues() is never evaluated with hidden output.
func (p *proc) loop() {
	if ps := p.part; ps != nil {
		ps.start()
		defer ps.stop()
	}
	observe := p.shard != nil || p.rt.events != nil
	for {
		m, ok := p.box.Get()
		if !ok || m.Kind == msg.Shutdown {
			return
		}
		if m.Kind == msg.Abort {
			// Record + relay (once per site) so sibling processes exit even
			// if the originator's broadcast only partially arrived, then die
			// without flushing: the query's answers no longer matter.
			p.rt.abort(m.Reason, m.Note)
			return
		}
		var start time.Time
		if observe {
			start = time.Now()
		}
		if !isWork(m.Kind) {
			p.flushAll()
		}
		p.handle(m)
		if p.box.Empty() {
			p.flushAll()
		}
		p.after(m)
		if observe {
			p.observe(m, start)
		}
	}
}

// observe records the handling span of one message — wall-clock from
// dequeue to completion, including every join, derivation, and send the
// message triggered — into the node's profile shard and the event log.
// Only reached when profiling or event tracing is on.
func (p *proc) observe(m msg.Message, start time.Time) {
	dur := time.Since(start)
	at := start.Sub(p.rt.begin)
	if p.shard != nil {
		p.shard.Handled(at, dur)
	}
	if l := p.rt.events; l != nil {
		l.Add(trace.Event{At: at, Dur: dur, Op: trace.EvHandle,
			Node: p.id, From: m.From, Kind: uint8(m.Kind), Rows: m.Rows()})
	}
}

// Attribution hooks: each updates the aggregate stats and, when profiling,
// this node's shard. Rule/goal handlers call these instead of rt.stats so
// every derived tuple, join probe, and EDB scan lands on the node that did
// the work.

func (p *proc) statDerived() {
	p.rt.stats.Derived()
	if p.shard != nil {
		p.shard.Derived()
	}
}

func (p *proc) statStored() {
	p.rt.stats.Stored()
	if p.shard != nil {
		p.shard.Stored()
	}
}

func (p *proc) statDup() {
	p.rt.stats.Dup()
	if p.shard != nil {
		p.shard.Dup()
	}
}

func (p *proc) statJoins(n int) {
	p.rt.stats.Joins(n)
	if p.shard != nil {
		p.shard.Joins(n)
	}
}

func (p *proc) statEDBScan() {
	p.rt.stats.EDBScan()
	if p.shard != nil {
		p.shard.EDBScan()
	}
}

func (p *proc) statEDBTuples(n int) {
	p.rt.stats.EDBTuples(n)
	if p.shard != nil {
		p.shard.EDBTuples(n)
	}
}

// queueTupReq sends (or, under batching, buffers) one tuple-request binding
// for the child, maintaining the cross-component watermark accounting.
func (p *proc) queueTupReq(child int, vals []symtab.Sym) {
	if f := p.feeds[child]; f != nil {
		f.sent.Add(1)
	}
	if !p.rt.batch {
		p.send(msg.Message{Kind: msg.TupReq, To: child, Vals: vals, Count: 1})
		return
	}
	if p.pending == nil {
		p.pending = make(map[int]*reqBatch)
	}
	b, ok := p.pending[child]
	if !ok {
		b = &reqBatch{}
		p.pending[child] = b
	}
	b.vals = append(b.vals, vals...)
	b.count++
}

// flushReqs emits one packaged tuple request per child with buffered
// bindings (footnote 2: "if packaged, the retrieval can be done in one
// scan").
func (p *proc) flushReqs() {
	for child, b := range p.pending {
		if b.count > 0 {
			p.send(msg.Message{Kind: msg.TupReq, To: child, Vals: b.vals, Count: b.count})
			b.vals, b.count = nil, 0
		}
	}
}

// queueTuple sends (or, under batching, buffers) one derived tuple for the
// destination. The row is copied when buffered, so callers may reuse vals.
// When the destination is partitioned the owning worker shard is computed
// here, at the sender, and rows are buffered per (dest, shard) so each
// shard still receives one frame per drain.
func (p *proc) queueTuple(dest int, vals []symtab.Sym) {
	shard := p.rt.shardOf(p.id, dest, vals)
	if !p.rt.batch {
		p.send(msg.Message{Kind: msg.Tuple, To: dest, Vals: vals, Shard: shard})
		return
	}
	if p.pendTups == nil {
		p.pendTups = make(map[destShard]*reqBatch)
	}
	k := destShard{dest: dest, shard: shard}
	b, ok := p.pendTups[k]
	if !ok {
		b = &reqBatch{}
		p.pendTups[k] = b
	}
	b.vals = append(b.vals, vals...)
	b.count++
}

// flushTuples emits one tuple message per destination with buffered rows,
// carrying their concatenation.
func (p *proc) flushTuples() {
	for k, b := range p.pendTups {
		if b.count > 0 {
			p.send(msg.Message{Kind: msg.Tuple, To: k.dest, Vals: b.vals, Count: b.count, Shard: k.shard})
			b.vals, b.count = nil, 0
		}
	}
}

// flushAll drains both batching buffers onto the channel.
func (p *proc) flushAll() {
	p.flushReqs()
	p.flushTuples()
}

// eachRow invokes f once per row of a (possibly packaged) TupReq or Tuple
// message; width is the row width at the receiver (zero-width rows are
// legal: a propositional batch is Count empty rows).
func eachRow(m msg.Message, width int, f func(vals []symtab.Sym)) {
	if m.Rows() == 1 {
		f(m.Vals)
		return
	}
	for i := 0; i < m.Count; i++ {
		f(m.Vals[i*width : (i+1)*width])
	}
}

func (p *proc) handle(m msg.Message) {
	switch m.Kind {
	case msg.EndReq:
		p.onEndReq(m)
	case msg.EndNeg:
		p.onEndAnswer(m, false)
	case msg.EndConf:
		p.onEndAnswer(m, true)
	case msg.Nudge:
		// handled in after()
	case msg.End:
		p.onEnd(m)
	default:
		switch {
		case p.part != nil:
			p.part.handle(m)
		case p.goal != nil:
			p.goal.handle(m)
		default:
			p.rule.handle(m)
		}
	}
}

// onEnd updates the watermark for a cross-component child.
func (p *proc) onEnd(m msg.Message) {
	f, ok := p.feeds[m.From]
	if !ok {
		return // end from an internal edge; ignore (should not happen)
	}
	if m.N > f.acked {
		f.acked = m.N
	}
	if m.All {
		f.allEnd = true
	}
	f.drained = true
}

// feedersSettled reports whether every cross-component child has serviced
// everything sent to it — the "received end messages from all its feeders"
// half of empty_queues().
func (p *proc) feedersSettled() bool {
	delta := p.rt.delta
	for _, f := range p.feeds {
		if !f.settled() || (delta && !f.drained) {
			return false
		}
	}
	return true
}

// emptyQueues is the protocol predicate of Fig 2: the node has no pending
// work and its feeders have serviced all outstanding requests. For a
// partitioned node the worker shards count as part of the node: all worker
// mailboxes must be Quiet (empty, with no dequeued message still in
// flight). The check order matters — feedersSettled reads the atomic
// request counters only after the Quiet loads, so a request queued by a
// worker whose completion we observed is always counted.
func (p *proc) emptyQueues() bool {
	if !p.box.Empty() {
		return false
	}
	if p.part != nil && !p.part.quiet() {
		return false
	}
	return p.feedersSettled()
}

// isWork classifies messages that constitute computation: anything except
// the termination-protocol traffic resets idleness (Fig 2's process_tuple
// does `idleness := 0`; we conservatively treat feeder end messages as work
// too).
func isWork(k msg.Kind) bool {
	switch k {
	case msg.EndReq, msg.EndNeg, msg.EndConf, msg.Nudge:
		return false
	}
	return true
}

// after runs the completion logic following every handled message: idleness
// bookkeeping, non-recursive end emission, nudges, and leader round starts.
func (p *proc) after(m msg.Message) {
	if p.recursive {
		// A self-addressed Nudge is a worker shard reporting that it just
		// drained: invisible-to-the-control work happened, so treat it like
		// work for liveness purposes (member → nudge leader, leader →
		// re-evaluate a round below).
		selfNudge := m.Kind == msg.Nudge && m.From == p.id
		if isWork(m.Kind) {
			p.idleness = 0
			if p.isLeader {
				p.confirmed = false
			}
		}
		if p.isLeader {
			if !p.inRound && p.emptyQueues() && !p.confirmed {
				p.startRound()
			}
		} else if (isWork(m.Kind) || selfNudge) && p.emptyQueues() {
			// Local quiescence may complete global quiescence: hint the
			// leader to (re)try a protocol round.
			p.send(msg.Message{Kind: msg.Nudge, To: p.leaderID})
		}
		return
	}
	// Non-recursive completion: emit watermark/final ends when settled.
	switch {
	case p.part != nil:
		p.part.maybeEnd()
	case p.goal != nil:
		p.goal.maybeEnd()
	default:
		p.rule.maybeEnd()
	}
}

// ---- Fig 2: distributed termination of cycles -----------------------------

// startRound originates an end request (leader only): "idleness := 1;
// create-end-request; process-end-request".
func (p *proc) startRound() {
	p.rt.stats.Round()
	p.round++
	if p.shard != nil {
		p.shard.Round()
	}
	if p.rt.prof != nil {
		p.rt.prof.MarkRound(p.id, p.round, false)
	}
	if l := p.rt.events; l != nil {
		l.Add(trace.Event{At: l.Since(), Op: trace.EvRound, Node: p.id, Seq: p.round})
	}
	p.inRound = true
	p.anyNeg = false
	p.idleness = 1
	p.processEndReq()
}

// onEndReq handles an end request arriving at a member from its BFST
// parent.
func (p *proc) onEndReq(m msg.Message) {
	p.round = m.Round
	p.processEndReq()
}

// processEndReq is Fig 2's process_end_request: bump or reset idleness,
// then forward the probe down the spanning tree, or answer immediately at a
// leaf. A partitioned member additionally compares its workers' completion
// counters against the previous probe: the control process never sees the
// shard-routed data traffic, so completed work between probes must reset
// idleness through the counters (in-flight work is already caught by the
// Quiet check inside emptyQueues). The counters are read after the Quiet
// loads so a completion observed via Quiet is never missed.
func (p *proc) processEndReq() {
	idle := p.emptyQueues()
	if ps := p.part; ps != nil {
		if w := ps.workNow(); w != ps.workAtProbe {
			ps.workAtProbe = w
			idle = false
		}
	}
	if idle {
		p.idleness++
	} else {
		p.idleness = 0
	}
	p.waitingFor = len(p.bfstChildren)
	p.anyNeg = false
	if p.waitingFor > 0 {
		for _, c := range p.bfstChildren {
			p.send(msg.Message{Kind: msg.EndReq, To: c, Round: p.round})
		}
		return
	}
	p.answerRound()
}

// onEndAnswer handles a child's end negative / end confirmed.
func (p *proc) onEndAnswer(m msg.Message, confirmed bool) {
	if m.Round != p.round {
		return // stale answer from an abandoned round; cannot normally occur
	}
	if !confirmed {
		p.anyNeg = true
	}
	p.waitingFor--
	if p.waitingFor == 0 {
		p.answerRound()
	}
}

// answerRound concludes this node's part of the round once every child has
// answered: pass end confirmed up only if all children confirmed and this
// node has been idle for the whole period between the two most recent end
// requests (idleness ≥ 2); the leader either concludes the protocol or
// retries.
func (p *proc) answerRound() {
	ok := !p.anyNeg && p.idleness >= 2
	if !p.isLeader {
		kind := msg.EndNeg
		if ok {
			kind = msg.EndConf
		}
		p.send(msg.Message{Kind: kind, To: p.bfstParent, Round: p.round})
		return
	}
	p.inRound = false
	if ok {
		// "The BFST leader issues an end message if and only if all nodes
		// in the strong component are idle and end messages have been
		// received from all feeders of the strong component" (Thm 3.1).
		p.confirmed = true
		if p.rt.prof != nil {
			p.rt.prof.MarkRound(p.id, p.round, true)
		}
		if l := p.rt.events; l != nil {
			l.Add(trace.Event{At: l.Since(), Op: trace.EvConfirm, Node: p.id, Seq: p.round})
		}
		if p.part != nil {
			p.part.confirmedEnd()
		} else {
			p.goal.confirmedEnd()
		}
		return
	}
	// Fig 2's process_end_negative: retry immediately while locally quiet.
	if p.emptyQueues() {
		runtime.Gosched() // let in-flight work land before probing again
		if p.emptyQueues() {
			p.startRound()
		} else {
			// New work just arrived; the normal after() path will restart.
		}
	}
}

// send stamps the sender and dispatches.
func (p *proc) send(m msg.Message) {
	m.From = p.id
	p.rt.send(m)
}

// customerID returns the node's customer for end purposes: its tree parent,
// or the driver for the root.
func (p *proc) customerID() int {
	if p.node.Parent == rgg.NoNode {
		return p.rt.driver
	}
	return p.node.Parent
}

func (p *proc) internalf(format string, args ...any) {
	panic(fmt.Sprintf("engine: node %d (%s): %s", p.id, p.node.Adorned(), fmt.Sprintf(format, args...)))
}
