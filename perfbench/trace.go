package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// The traced run (--trace 1) measures the layers under the end-to-end
// numbers, calling each module's public functions from outside:
//
//  1. the workload's own phases, shortened, on an untraced deployment:
//     the serve counters (Server.Stats), the plan-cache counters, the
//     open-loop generator's lateness and the disk store's cache counters;
//  2. in-process calls on that System over a sample of the workload's
//     queries: plan lookup and compile, PreparedQuery.Eval, Plan.Run at
//     GOMAXPROCS=1 and at nproc, the engine's trace.Stats counters,
//     allocations, and the magic-sets evaluation of the same queries;
//  3. a closed loop on one connection, first against that deployment and
//     then against a second one whose store is wrapped in timedStore and
//     whose server log records a span per request: spans of the client
//     request, the server's handling and the EDB calls under it;
//  4. Plan.Run on the wrapped store, splitting engine time from EDB time;
//  5. the delta rounds a subscription runs (engine.Plan.Incremental, the
//     call Subscription.Next makes), one per write of the workload.
//
// One operation is in flight at a time in 3-5, which is what lets spans be
// attributed to their request without code in the program.

// kit is what the traced run needs from a workload.
type kit struct {
	load     func(dir string, st edb.Storage) (*mpq.System, error)
	probe    string
	phases   func(d *deployment) error
	stream   [2]func(n int) []op // traced closed-loop stream: [untraced, traced] deployment
	resolve  [2]func(ops []op) error
	sample   [2]func() []string // query lines for the in-process calls: [untraced, traced] System
	subQuery func() string      // the view the delta rounds maintain, on the traced System
	writes   func(n int) []op   // writes on the traced System, for the delta rounds
}

func noResolve([]op) error { return nil }

func (r *run) kit() kit {
	switch r.name {
	case "point-serve":
		var mP, mT *treeModel
		k := kit{probe: "?- anc(c0, Y).", resolve: [2]func([]op) error{noResolve, noResolve}}
		k.load = func(_ string, st edb.Storage) (*mpq.System, error) {
			if st == nil {
				mP = newTreeModel(r.w, r.seed)
				return mpq.Load(mP.source())
			}
			mT = newTreeModel(r.w, r.seed)
			return mpq.Load(mT.source(), mpq.WithStorage(st))
		}
		k.phases = func(d *deployment) error { return r.pointPhases(d, mP) }
		k.stream = [2]func(int) []op{func(n int) []op { return mP.reads(n) }, func(n int) []op { return mT.reads(n) }}
		k.sample = [2]func() []string{func() []string { return lines(mP.reads(200)) }, func() []string { return lines(mT.reads(200)) }}
		k.subQuery = func() string { q, _ := mT.subscription(); return q }
		k.writes = func(n int) []op { return mT.up.writes(n) }
		return k
	case "recursive-mix":
		var mP, mT *mixModel
		var oP, oT *oracle
		k := kit{probe: "?- path(n0, Y).", subQuery: func() string { return "?- path(n0, Y)." }}
		k.load = func(_ string, st edb.Storage) (*mpq.System, error) {
			if st == nil {
				mP = newMixModel(r.w, r.seed)
				oP = newOracle(stripGoal(mixRules), mP.allFacts())
				return mpq.Load(mP.source())
			}
			mT = newMixModel(r.w, r.seed)
			oT = newOracle(stripGoal(mixRules), mT.allFacts())
			return mpq.Load(mT.source(), mpq.WithStorage(st))
		}
		k.phases = func(d *deployment) error { return r.mixPhases(d, mP, oP) }
		k.stream = [2]func(int) []op{func(n int) []op { return mP.reads(n) }, func(n int) []op { return mT.reads(n) }}
		k.resolve = [2]func([]op) error{func(ops []op) error { return oP.resolve(ops) }, func(ops []op) error { return oT.resolve(ops) }}
		k.sample = [2]func() []string{func() []string { return lines(mP.reads(15)) }, func() []string { return lines(mT.reads(15)) }}
		k.writes = func(n int) []op { return mT.up.writes(n) }
		return k
	default: // write-subscribe
		var mP, mT *chainModel
		k := kit{probe: "?- path(n0, Y).", subQuery: func() string { return "?- path(n0, Y)." }, resolve: [2]func([]op) error{noResolve, noResolve}}
		k.load = func(dir string, st edb.Storage) (*mpq.System, error) {
			if st == nil {
				mP = newChainModel(r.w, r.seed)
				return mpq.OpenSystem(dir, mP.source())
			}
			mT = newChainModel(r.w, r.seed)
			return mpq.Load(mT.source(), mpq.WithStorage(st))
		}
		k.phases = func(d *deployment) error {
			_, _, err := r.writeSubscribePhases(d, mP)
			return err
		}
		k.stream = [2]func(int) []op{func(n int) []op { return mP.mixed(n) }, func(n int) []op { return mT.mixed(n) }}
		k.sample = [2]func() []string{func() []string { return lines(mP.reads(100)) }, func() []string { return lines(mT.reads(100)) }}
		k.writes = func(n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = mT.write()
			}
			return ops
		}
		return k
	}
}

func lines(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.line
	}
	return out
}

func (r *run) traced(spanDir string) error {
	k := r.kit()
	log := newSpanLog()
	cfg := serve.Config{Strategy: r.w.Strategy}
	dP, err := r.setUp(func(dir string) (*mpq.System, error) { return k.load(dir, nil) }, cfg, k.probe, 1)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			dP.close()
		}
		os.RemoveAll(dP.dir)
	}()

	// 1. The workload's phases, untraced, for the program's own counters.
	full := r.secs
	r.secs = full * 0.4
	if err := k.phases(dP); err != nil {
		return err
	}
	r.secs = full
	sn := dP.srv.Stats().Snapshot()
	r.metrics["serve.queue_wait_mean_ms"] = ms(sn.QueueWait.Mean())
	r.metrics["serve.eval_mean_ms"] = ms(sn.Eval.Mean())
	r.metrics["serve.result_hit_ratio"] = ratio(sn.ResultHits, sn.ResultHits+sn.ResultMisses)
	r.metrics["plan.hit_ratio"] = ratio(sn.PlanHits, sn.PlanHits+sn.PlanMisses)
	r.metrics["plan.reopts"] = float64(sn.PlanReopts)
	r.metrics["harness.gen_lag_p99_ms"] = msAt(r.lags, 0.99)
	r.metrics["edb.cache_hit_ratio"] = 0
	if ds, ok := dP.sys.DB.Store().(*edb.DiskStore); ok {
		hits, misses := ds.CacheStats()
		r.metrics["edb.cache_hit_ratio"] = ratio(int64(hits), int64(hits+misses))
	}

	// 2. In-process calls on the untraced System.
	if err := r.engineLayers(dP.sys, k.sample[0](), log); err != nil {
		return err
	}

	// 3. The same closed loop untraced, then traced.
	phase := time.Duration(0.15 * r.secs * float64(time.Second))
	ref, err := r.tracePhase(dP, nil, k.stream[0], k.resolve[0], phase)
	if err != nil {
		return err
	}
	ts := &timedStore{log: log}
	if r.w.Store == "disk" {
		ds, err := edb.OpenDisk(filepath.Join(r.tmp, "traced"))
		if err != nil {
			return err
		}
		ts.Storage = ds
	} else {
		ts.Storage = edb.New().Store()
	}
	sysT, err := k.load("", ts)
	if err != nil {
		return err
	}
	cfgT := cfg
	cfgT.Logf = func(format string, args ...any) { serverSpan(log, args) }
	dT, err := deploy(sysT, cfgT)
	if err != nil {
		sysT.Close()
		return err
	}
	defer dT.close()
	traced, err := r.tracePhase(dT, log, k.stream[1], k.resolve[1], phase)
	if err != nil {
		return err
	}
	r.metrics["harness.trace_overhead_x"] = traced / ref
	r.wireSelfTimes(log)

	// 4. Engine time against EDB time, on the wrapped store.
	if err := r.engineSelf(sysT, ts, k.sample[1](), log); err != nil {
		return err
	}

	// 5. Delta rounds, one per write.
	if err := r.deltaRounds(sysT, k.subQuery(), k.writes(300), log); err != nil {
		return err
	}
	r.metrics["edb.insert_p50_us"] = usAt(ts.inserts, 0.5)
	r.metrics["edb.insert_p90_us"] = usAt(ts.inserts, tailQuantile(len(ts.inserts)))

	r.metrics["edb.store_bytes_per_fact"] = 0
	if dP.dir != "" {
		v := dP.sys.EDBVersion()
		closed = true
		if err := dP.close(); err != nil {
			return err
		}
		b, err := dirBytes(dP.dir)
		if err != nil {
			return err
		}
		r.metrics["edb.store_bytes_per_fact"] = float64(b) / float64(v)
	}
	path, err := log.write(spanDir, fmt.Sprintf("%s-%d.jsonl", r.name, r.seed))
	if err != nil {
		return err
	}
	r.notef("spans: %d written to %s", len(log.all()), path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// msAt and usAt are the q-quantile of ds in ms and in µs (0 when empty).
func msAt(ds []time.Duration, q float64) float64 {
	v, _ := quantile(ds, q)
	return v
}

func usAt(ds []time.Duration, q float64) float64 { return 1000 * msAt(ds, q) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serverSpan turns one server log line into the serve.request span of the
// request in flight. Every query line ends with its end-to-end duration.
func serverSpan(log *spanLog, args []any) {
	if len(args) == 0 {
		return
	}
	d, ok := args[len(args)-1].(time.Duration)
	req := log.req.Load()
	if !ok || req == 0 {
		return
	}
	end := time.Now()
	log.add(log.reserve.Load(), log.reserve.Load()-1, req, "serve.request", end.Add(-d), end)
}

// tracePhase is a closed loop on one connection. With a span log it
// records a client.request span per operation and reserves the id of the
// server's span (always the client span's id + 1), under which the EDB
// calls of a query fall; a write's EDB calls fall under its client span.
// It returns the reads' median latency in ms.
func (r *run) tracePhase(d *deployment, log *spanLog, gen func(int) []op, resolve func([]op) error, dur time.Duration) (float64, error) {
	c, err := dial(d.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	s := &stream{gen: gen}
	var ops []op
	var res []result
	for stop := time.Now().Add(dur); time.Now().Before(stop); {
		o := s.at(len(ops))
		var x result
		var clientID, req uint64
		if log != nil {
			req = log.newID()
			clientID = log.newID()
			serveID := log.newID()
			log.reserve.Store(serveID)
			parent := serveID
			if o.write {
				parent = clientID
			}
			log.enter(req, parent)
		}
		x.sent = time.Now()
		x.due = x.sent
		if x.err = c.send(o.line); x.err == nil {
			x.rp, x.err = c.readReply()
		}
		if log != nil {
			log.leave()
			log.add(clientID, 0, req, "client.request", x.sent, time.Now())
		}
		ops, res = append(ops, o), append(res, x)
		if x.err != nil {
			break
		}
	}
	if err := resolve(ops); err != nil {
		return 0, err
	}
	r.t.check(ops, res)
	p50, err := quantile(latencies(ops, res, isRead), 0.5)
	if err != nil {
		return 0, fmt.Errorf("traced closed loop: %w", err)
	}
	return p50, nil
}

// wireSelfTimes derives the per-query self times of the traced closed
// loop from its spans: wire (client span minus the server's), serve
// (server span minus its EDB calls) and EDB.
func (r *run) wireSelfTimes(log *spanLog) {
	spans := log.all()
	serveByParent := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == "serve.request" {
			serveByParent[s.Parent] = s
		}
	}
	reads := make(map[uint64]bool)
	var wire []time.Duration
	for _, s := range spans {
		if sv, ok := serveByParent[s.ID]; ok && s.Name == "client.request" {
			reads[s.Req] = true
			wire = append(wire, s.dur()-sv.dur())
		}
	}
	self := log.selfTimes(func(s span) bool { return reads[s.Req] })
	n := float64(max(1, len(reads)))
	r.metrics["serve.wire_overhead_p50_ms"] = msAt(wire, 0.5)
	r.metrics["self.wire_ms_per_query"] = ms(self["client.request"]) / n
	r.metrics["self.serve_ms_per_query"] = ms(self["serve.request"]) / n
	r.metrics["self.edb_ms_per_query"] = ms(self["edb.scan"]) / n
}

// prepared is one sample query compiled for direct engine calls.
type prepared struct {
	line string
	pq   *mpq.PreparedQuery
	args []string
	plan *engine.Plan
	bind []symtab.Sym
}

// prepareAll resolves the sample through the plan cache, timing each
// lookup, and builds an engine.Plan per distinct compiled plan.
func prepareAll(sys *mpq.System, opts []mpq.Option, queries []string, log *spanLog) ([]prepared, []time.Duration, error) {
	plans := make(map[*mpq.PreparedQuery]*engine.Plan)
	var out []prepared
	var lookups []time.Duration
	for _, q := range queries {
		p := prepared{line: q}
		var err error
		var hit bool
		d := log.timed("plan.lookup", func() { p.pq, p.args, hit, err = sys.QueryPrepared(q, opts...) })
		if err != nil {
			return nil, nil, err
		}
		if hit {
			lookups = append(lookups, d)
		}
		if p.plan = plans[p.pq]; p.plan == nil {
			p.plan = engine.NewPlan(p.pq.Graph(), sys.DB)
			plans[p.pq] = p.plan
		}
		for _, a := range p.args {
			p.bind = append(p.bind, sys.DB.Syms.Intern(a))
		}
		out = append(out, p)
	}
	return out, lookups, nil
}

// engineLayers times the plan, engine and magic-sets calls on sys.
func (r *run) engineLayers(sys *mpq.System, queries []string, log *spanLog) error {
	opts := []mpq.Option{mpq.WithStrategy(r.w.Strategy)}
	ps, lookups, err := prepareAll(sys, opts, queries, log)
	if err != nil {
		return err
	}
	if len(lookups) == 0 {
		return fmt.Errorf("plan lookups: no plan-cache hits")
	}
	r.metrics["plan.lookup_p50_us"] = usAt(lookups, 0.5)
	var compiles []time.Duration
	for i := range 5 {
		compiles = append(compiles, log.timed("plan.compile", func() { _, err = sys.Prepare(queries[i%len(queries)], opts...) }))
		if err != nil {
			return err
		}
	}
	r.metrics["plan.compile_ms"] = msAt(compiles, 0.5)

	ctx := context.Background()
	evalPass := func() ([]time.Duration, error) {
		var ds []time.Duration
		for _, p := range ps {
			var err error
			ds = append(ds, log.timed("engine.eval", func() { _, err = p.pq.Eval(ctx, p.args...) }))
			if err != nil {
				return nil, err
			}
		}
		return ds, nil
	}
	runPass := func(st *trace.Stats) ([]time.Duration, error) {
		var ds []time.Duration
		for _, p := range ps {
			var err error
			ds = append(ds, log.timed("engine.run", func() { _, err = p.plan.Run(engine.Options{Bind: p.bind, Stats: st}) }))
			if err != nil {
				return nil, err
			}
		}
		return ds, nil
	}
	if _, err := evalPass(); err != nil { // warm the pooled scratch
		return err
	}
	evals, err := evalPass()
	if err != nil {
		return err
	}
	r.metrics["engine.eval_p50_us"] = usAt(evals, 0.5)
	runs, err := runPass(nil)
	if err != nil {
		return err
	}
	r.metrics["engine.run_p50_us"] = usAt(runs, 0.5)

	// The same evaluations at one core and at nproc, interleaved in blocks
	// so drift in the host's speed hits both.
	nproc := runtime.GOMAXPROCS(0)
	var at1, atN []time.Duration
	for range 3 {
		for _, procs := range []int{1, nproc} {
			runtime.GOMAXPROCS(procs)
			ds, err := evalPass()
			if err != nil {
				runtime.GOMAXPROCS(nproc)
				return err
			}
			if procs == 1 {
				at1 = append(at1, ds...)
			} else {
				atN = append(atN, ds...)
			}
		}
	}
	runtime.GOMAXPROCS(nproc)
	r.metrics["engine.eval_p50_us.cpu1"] = usAt(at1, 0.5)
	r.metrics["engine.eval_p50_us.cpuN"] = usAt(atN, 0.5)
	r.notef("evaluations at GOMAXPROCS=1 and =%d: %d each", nproc, len(at1))

	st := &trace.Stats{}
	if _, err := runPass(st); err != nil {
		return err
	}
	sn, n := st.Snapshot(), float64(len(ps))
	r.metrics["engine.msgs_per_query"] = float64(sn.Messages()) / n
	r.metrics["engine.rows_per_query"] = float64(sn.TupleRows) / n
	r.metrics["engine.rounds_per_query"] = float64(sn.Rounds) / n
	r.metrics["engine.joins_per_query"] = float64(sn.Joins) / n
	r.metrics["engine.dup_ratio"] = ratio(sn.Dups, sn.Stored+sn.Dups)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := evalPass(); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.metrics["engine.allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / n
	r.metrics["engine.bytes_per_query"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n

	// Magic sets on the same queries: System.Eval evaluates the program's
	// own goal rule, so swap in one per query.
	rules := sys.Program.Rules
	defer func() { sys.Program.Rules = rules }()
	var kept []ast.Rule
	for _, rl := range rules {
		if rl.Head.Pred != ast.GoalPred {
			kept = append(kept, rl)
		}
	}
	k := min(len(ps), 10)
	var magic []time.Duration
	for _, p := range ps[:k] {
		g, err := parser.Parse("goal(Y) :- " + queryBody(p.line) + ".")
		if err != nil {
			return err
		}
		sys.Program.Rules = append(kept[:len(kept):len(kept)], g.Rules...)
		var ans *mpq.Answer
		magic = append(magic, log.timed("oracle.magic", func() { ans, err = sys.Eval(mpq.WithEngine(mpq.MagicSets)) }))
		if err != nil {
			return err
		}
		want, err := p.pq.Eval(ctx, p.args...)
		r.t.attempted++
		if err != nil || len(want.Tuples) != len(ans.Tuples) {
			r.t.fail("%s: magic sets and message passing disagree", p.line)
		}
	}
	mag := msAt(magic, 0.5)
	r.metrics["oracle.magic_ms"] = mag
	r.metrics["engine.vs_magic_x"] = msAt(evals[:k], 0.5) / mag
	return nil
}

// engineSelf runs the sample through Plan.Run on the wrapped store: eval
// time minus the EDB calls under it is the engine's own time (message
// handling, mailboxes, scheduling).
func (r *run) engineSelf(sys *mpq.System, ts *timedStore, queries []string, log *spanLog) error {
	ps, _, err := prepareAll(sys, []mpq.Option{mpq.WithStrategy(r.w.Strategy)}, queries, log)
	if err != nil {
		return err
	}
	for _, p := range ps { // warm
		if _, err := p.plan.Run(engine.Options{Bind: p.bind}); err != nil {
			return err
		}
	}
	ts.counters()
	reqs := make(map[uint64]bool)
	for _, p := range ps {
		req := log.newID()
		reqs[req] = true
		log.enter(req, 0)
		log.timed("engine.run", func() { _, err = p.plan.Run(engine.Options{Bind: p.bind}) })
		log.leave()
		if err != nil {
			return err
		}
	}
	scans, rows, busy := ts.counters()
	n := float64(len(ps))
	self := log.selfTimes(func(s span) bool { return reqs[s.Req] })
	r.metrics["engine.self_ms_per_query"] = ms(self["engine.run"]) / n
	r.metrics["edb.scans_per_query"] = float64(scans) / n
	r.metrics["edb.scan_rows_per_query"] = float64(rows) / n
	r.metrics["edb.scan_busy_ms_per_query"] = ms(busy) / n
	return nil
}

// deltaRounds subscribes to query through the engine's incremental
// evaluation and runs one delta round after each write, timing it and
// counting the rounds whose delta seeded at least one tuple.
func (r *run) deltaRounds(sys *mpq.System, query string, writes []op, log *spanLog) error {
	pq, args, _, err := sys.QueryPrepared(query, mpq.WithStrategy(r.w.Strategy))
	if err != nil {
		return err
	}
	var bind []symtab.Sym
	for _, a := range args {
		bind = append(bind, sys.DB.Syms.Intern(a))
	}
	st := &trace.Stats{}
	inc := engine.NewPlan(pq.Graph(), sys.DB).Incremental(engine.Options{Bind: bind, Stats: st})
	if _, err := inc.Round(nil, nil); err != nil {
		return err
	}
	var took []time.Duration
	useful := 0
	for _, w := range writes {
		req := log.newID()
		log.enter(req, 0)
		log.timed("mpq.addfact", func() { sys.AddFact(w.fact[0], w.fact[1:]...) })
		seeded := st.Snapshot().DeltaSeeded
		var res *engine.Result
		took = append(took, log.timed("subscribe.round", func() { res, err = inc.Round(nil, nil) }))
		log.leave()
		if err != nil {
			return err
		}
		if st.Snapshot().DeltaSeeded > seeded {
			useful++
		}
		want := 0
		if w.extends {
			want = 1
		}
		r.t.attempted++
		if res.Answers.Len() != want {
			r.t.fail("delta round after %q: %d new answers, want %d", w.line, res.Answers.Len(), want)
		}
	}
	r.metrics["subscribe.round_p50_us"] = usAt(took, 0.5)
	r.metrics["subscribe.useful_round_ratio"] = float64(useful) / float64(len(took))
	return nil
}
