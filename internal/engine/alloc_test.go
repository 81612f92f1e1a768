package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/symtab"
	"repro/internal/workload"
)

// planRunAllocBound caps the allocations of one pooled Plan.Run of TC over
// workload.Random("edge", 200, 800, seed 7) at GOMAXPROCS=1. The engine
// measured 16,875 allocs/run when its dedup sets were string-keyed
// maps and its handlers allocated per message; the bound is one fifth of
// that.
const planRunAllocBound = 16875 / 5

// TestPlanRunAllocs bounds the allocations of a pooled run: node handlers
// reuse per-process scratch and dedup through relation hash sets, so what
// remains is per-run setup and the storage of genuinely new rows.
func TestPlanRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	prog := workload.Program(workload.TCRules,
		workload.Random("edge", 200, 800, rand.New(rand.NewSource(7))))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(g, edb.FromProgram(prog))
	want := -1
	run := func() {
		res, err := pl.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = res.Answers.Len()
		} else if res.Answers.Len() != want {
			t.Fatalf("%d answers, want %d", res.Answers.Len(), want)
		}
	}
	run() // populate the pool
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("Plan.Run: %.0f allocs/run (%d answers)", allocs, want)
	if allocs > planRunAllocBound {
		t.Errorf("Plan.Run: %.0f allocs/run, want <= %d", allocs, planRunAllocBound)
	}
}

// TestHandlersDuplicateZeroAllocs pins the per-message dedup paths of rule
// and goal nodes at zero allocations: a duplicate subgoal tuple, a head
// tuple already sent, a d-binding already requested, and a repeated tuple
// request. The network is driven to quiescence single-threadedly first,
// so every node holds stored state to repeat.
func TestHandlersDuplicateZeroAllocs(t *testing.T) {
	s, _ := newSchedRunner(t, `edge(a, b). edge(b, c). edge(c, a). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- path(X, U), edge(U, Y).
		goal(Y) :- path(a, Y).`, 1, Options{})
	s.run(t, 100_000)
	zero := func(what string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", what, allocs)
		}
	}
	var sub, head, req, goal bool
	for _, p := range s.procs {
		if r := p.rule; r != nil {
			for j, src := range r.subs {
				if !sub && src.rel.Len() > 0 {
					sub = true
					row := src.rel.Rows()[0]
					vals := make([]symtab.Sym, len(src.posCol))
					for k, ci := range src.posCol {
						vals[k] = row[ci]
					}
					m := msg.Message{Kind: msg.Tuple, From: src.children[0], Vals: vals}
					zero("rule node handling a duplicate subgoal tuple", func() { r.handle(m) })
				}
				if !req && src.sentReqs.Len() > 0 {
					req = true
					for i, sl := range src.dSlots {
						r.slots[sl] = src.sentReqs.Rows()[0][i]
					}
					zero("requestSub for a binding already requested", func() { r.requestSub(j) })
				}
			}
			if !head && r.sentHeads.Len() > 0 {
				head = true
				for i, sl := range r.headSlots {
					if sl >= 0 {
						r.slots[sl] = r.sentHeads.Rows()[0][i]
					}
				}
				zero("emitHead for a head already sent", r.emitHead)
			}
		}
		if g := p.goal; g != nil && !goal && len(g.dPos) > 0 {
			for _, cs := range g.customers {
				if cs.reqs.Len() > 0 {
					goal = true
					m := msg.Message{Kind: msg.TupReq, From: cs.id, Vals: cs.reqs.Rows()[0], Count: 1}
					zero("goal node handling a repeated tuple request", func() { g.handle(m) })
					break
				}
			}
		}
	}
	if !sub || !head || !req || !goal {
		t.Fatalf("no state to repeat: sub=%v head=%v req=%v goal=%v", sub, head, req, goal)
	}
}

// mixRules are the recursive rules of the recursive-mix serving workload:
// linear TC over edge, nonlinear TC over link, same-generation over par.
const mixRules = `
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, U), edge(U, Y).
	t(X, Y) :- link(X, Y).
	t(X, Y) :- t(X, U), t(U, Y).
	sg(X, Y) :- par(X, P), par(Y, P).
	sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
`

// BenchmarkPlanRunMix runs the recursive-mix query shapes on pooled plans
// prepared the way PreparedQuery prepares them (the start constant is a
// class "d" root position seeded through Options.Bind), rotating start
// constants so each iteration evaluates a different point query:
// path over Random(2000, 8000), sg over Tree(4, 6) and t over
// Components(link, 20, 100). Run with -benchmem.
func BenchmarkPlanRunMix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	facts := workload.Random("edge", 2000, 8000, rng)
	facts = append(facts, workload.Tree(4, 6)...)
	facts = append(facts, workload.Components("link", 20, 100)...)
	base := parser.MustParse(mixRules)
	db := edb.FromProgram(&ast.Program{Rules: base.Rules, Facts: facts})
	for _, shape := range []struct {
		pred   string
		prefix string
		n      int
	}{{"path", "n", 2000}, {"sg", "c", 4096}, {"t", "n", 2000}} {
		b.Run(shape.pred, func(b *testing.B) {
			q := parser.MustParse(fmt.Sprintf("goal(Y, X) :- %s(X, Y).", shape.pred))
			prog := &ast.Program{Rules: append(append([]ast.Rule(nil), base.Rules...), q.Rules...)}
			g, err := rgg.Build(prog, rgg.Options{RootAd: adorn.Adornment{adorn.Free, adorn.Dynamic}})
			if err != nil {
				b.Fatal(err)
			}
			pl := NewPlan(g, db)
			starts := make([]symtab.Sym, 0, shape.n)
			for _, i := range rand.New(rand.NewSource(2)).Perm(shape.n) {
				starts = append(starts, db.Symbols().Intern(fmt.Sprintf("%s%d", shape.prefix, i)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := pl.Run(Options{Bind: []symtab.Sym{starts[i%len(starts)]}})
				if err != nil {
					b.Fatal(err)
				}
				rows += res.Answers.Len()
			}
			b.ReportMetric(float64(rows)/float64(b.N), "answers/op")
		})
	}
}
