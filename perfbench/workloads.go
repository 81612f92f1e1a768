package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/relation"
	"repro/internal/serve"
)

// pointServe: Zipf-skewed ancestor point queries as an open loop at a
// fixed rate, then a closed loop for capacity, then the write phase.
func (r *run) pointServe() error {
	var m *treeModel
	d, err := r.setUp(func(string) (*mpq.System, error) {
		m = newTreeModel(r.w, r.seed)
		return mpq.Load(m.source())
	}, serve.Config{Strategy: r.w.Strategy}, "?- anc(c0, Y).", r.w.Setups)
	if err != nil {
		return err
	}
	defer d.close()
	return r.pointPhases(d, m)
}

func (r *run) pointPhases(d *deployment, m *treeModel) error {
	for range rounds {
		before := d.srv.Stats().Snapshot()
		open := r.w.phase("open")
		ops := m.reads(r.opens(open))
		res, err := r.openPhase(d, open, ops)
		if err != nil {
			return err
		}
		r.lat["read"] = append(r.lat["read"], latencies(ops, res, isRead))
		after := d.srv.Stats().Snapshot()
		r.notef("open loop: %d reads at %.0f/s; result-cache hits %d of %d", len(ops), open.Rate,
			after.ResultHits-before.ResultHits, after.ResultHits+after.ResultMisses-before.ResultHits-before.ResultMisses)

		cops, cres, err := r.closedPhase(d, r.w.phase("closed"), m.reads)
		if err != nil {
			return err
		}
		r.t.check(cops, cres)

		q, want := m.subscription()
		wp := r.w.phase("writes")
		if _, err := r.writePhase(d, wp, q, want, m.up.writes(r.opens(wp)), func() []string { _, w := m.subscription(); return w }); err != nil {
			return err
		}
	}
	return nil
}

// recursiveMix: a closed loop of recursive point queries on one
// connection, checked against the bottom-up oracle, then the write phase.
func (r *run) recursiveMix() error {
	var m *mixModel
	d, err := r.setUp(func(string) (*mpq.System, error) {
		m = newMixModel(r.w, r.seed)
		return mpq.Load(m.source())
	}, serve.Config{Strategy: r.w.Strategy}, "?- path(n0, Y).", r.w.Setups)
	if err != nil {
		return err
	}
	defer d.close()
	return r.mixPhases(d, m, newOracle(stripGoal(mixRules), m.allFacts()))
}

func (r *run) mixPhases(d *deployment, m *mixModel, o *oracle) error {
	var all []op
	var allRes []result
	for range rounds {
		ops, res, err := r.closedPhase(d, r.w.phase("closed"), m.reads)
		if err != nil {
			return err
		}
		if err := o.resolve(ops); err != nil {
			return err
		}
		r.t.check(ops, res)
		r.lat["read"] = append(r.lat["read"], latencies(ops, res, isRead))
		all, allRes = append(all, ops...), append(allRes, res...)

		q := "?- path(n0, Y)."
		want, err := o.answers(q)
		if err != nil {
			return err
		}
		wp := r.w.phase("writes")
		writes := m.up.writes(r.opens(wp))
		final := func() []string {
			o.addFacts(writes)
			a, _ := o.answers(q) // an error leaves the set empty, failing the check
			return a
		}
		if _, err := r.writePhase(d, wp, q, want, writes, final); err != nil {
			return err
		}
	}
	for _, kind := range []string{"path", "sg", "t"} {
		p50, _ := quantile(latencies(all, allRes, func(o op) bool { return strings.HasPrefix(o.line, "?- "+kind+"(") }), 0.5)
		r.notef("%s queries: p50 %.3f ms", kind, p50)
	}
	return nil
}

// writeSubscribe: a disk-backed System; one connection holds a
// subscription while another sends a fixed-rate open loop of writes
// interleaved with chain point reads; then a closed loop of reads; then
// the durability check on the reopened store.
func (r *run) writeSubscribe() error {
	var m *chainModel
	d, err := r.setUp(func(dir string) (*mpq.System, error) {
		m = newChainModel(r.w, r.seed)
		return mpq.OpenSystem(dir, m.source())
	}, serve.Config{Strategy: r.w.Strategy}, "?- path(n0, Y).", r.w.Setups)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)
	ops, res, err := r.writeSubscribePhases(d, m)
	if err != nil {
		d.close()
		return err
	}
	if err := d.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return r.durability(d.dir, m, ops, res)
}

func (r *run) writeSubscribePhases(d *deployment, m *chainModel) ([]op, []result, error) {
	var all []op
	var allRes []result
	for range rounds {
		q, want := m.subscription()
		open := r.w.phase("open")
		ops := m.mixed(r.opens(open))
		res, err := r.writePhase(d, open, q, want, ops, func() []string { _, w := m.subscription(); return w })
		if err != nil {
			return nil, nil, err
		}
		r.lat["read"] = append(r.lat["read"], latencies(ops, res, isRead))
		all, allRes = append(all, ops...), append(allRes, res...)
		cops, cres, err := r.closedPhase(d, r.w.phase("closed"), m.reads)
		if err != nil {
			return nil, nil, err
		}
		r.t.check(cops, cres)
	}
	return all, allRes, nil
}

// durability reopens the closed store: every acknowledged fact must be
// there, the version must equal the last acknowledged one, and the
// subscription's view must equal the bottom-up oracle's on the final EDB.
func (r *run) durability(dir string, m *chainModel, ops []op, res []result) error {
	var lastVer uint64
	var acked [][]string
	for i, x := range res {
		if ops[i].write && x.err == nil && x.rp.kind == '+' && x.rp.n == 1 {
			acked = append(acked, ops[i].fact[1:])
			lastVer = max(lastVer, x.rp.ver)
		}
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	sys, err := mpq.OpenSystem(dir, m.source())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer sys.Close()
	r.t.attempted++
	if v := sys.EDBVersion(); v != lastVer {
		r.t.fail("reopened store at version %d, last acknowledged write v=%d", v, lastVer)
	}
	key := ast.PredKey{Name: "edge", Arity: 2}
	for _, f := range acked {
		r.t.attempted++
		a, oka := sys.DB.Syms.Lookup(f[0])
		b, okb := sys.DB.Syms.Lookup(f[1])
		if !oka || !okb || !edb.Contains(sys.DB, key, relation.Tuple{a, b}) {
			r.t.fail("acknowledged fact edge(%s, %s) lost on reopen", f[0], f[1])
		}
	}
	ans, err := sys.Eval(mpq.WithEngine(mpq.MagicSets))
	if err != nil {
		return fmt.Errorf("oracle on reopened store: %w", err)
	}
	_, want := m.subscription()
	r.t.attempted++
	got := make(map[string]bool, len(ans.Tuples))
	for _, t := range ans.Tuples {
		got[t[0]] = true
	}
	if err := sameSet(got, want); err != nil {
		r.t.fail("oracle path(n0,Y) on the final EDB vs the subscribed view: %v", err)
	}
	r.metrics["edb.store_bytes_per_fact"] = float64(bytes) / float64(lastVer)
	r.notef("durability: %d acknowledged facts present after reopen at v=%d; store %d bytes", len(acked), lastVer, bytes)
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
