package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/edb"
	"repro/internal/msg"
	"repro/internal/parser"
	"repro/internal/rgg"
	"repro/internal/transport"
	"repro/internal/workload"
)

// slowWorkload returns a recursive query big enough that, with a small
// EDBDelay, the evaluation reliably runs for hundreds of milliseconds —
// long enough for deadlines, cancels, and kills to land mid-flight.
func slowWorkload(t *testing.T) (*rgg.Graph, *edb.Database) {
	t.Helper()
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 60))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, workload.DB(prog)
}

// guard fails the test if fn does not return within the limit — the one
// outcome this PR exists to rule out is an indefinite hang.
func guard(t *testing.T, limit time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatal(what + " hung")
	}
}

// within returns a context that expires after d and is released when the
// test ends.
func within(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestDeadlineAbortsRun(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "deadline abort", func() {
		res, err := Run(g, db, Options{EDBDelay: 2 * time.Millisecond, Context: within(t, 25*time.Millisecond)})
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want ErrDeadline and context.DeadlineExceeded", err)
		}
		if res != nil {
			t.Error("aborted run returned a result")
		}
	})
}

func TestDeadlineLeavesFastQueriesAlone(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "deadlined run", func() {
		res, err := Run(g, db, Options{Context: within(t, 30*time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() == 0 {
			t.Error("no answers")
		}
	})
}

func TestCancelAbortsRun(t *testing.T) {
	g, db := slowWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	guard(t, 30*time.Second, "cancel abort", func() {
		_, err := Run(g, db, Options{EDBDelay: 2 * time.Millisecond, Context: ctx})
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want ErrCancelled and context.Canceled", err)
		}
	})
}

// panicNet panics on the first Tuple send, then behaves normally — it
// simulates a bug inside one node process's handler.
type panicNet struct {
	inner transport.Network
	once  sync.Once
}

func (p *panicNet) Send(m msg.Message) {
	if m.Kind == msg.Tuple {
		armed := false
		p.once.Do(func() { armed = true })
		if armed {
			panic("injected node failure")
		}
	}
	p.inner.Send(m)
}

func TestNodePanicAborts(t *testing.T) {
	prog := parser.MustParse(p1data)
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := edb.FromProgram(prog)
	local := transport.NewLocal(len(g.Nodes) + 1)
	rt, err := newRunner(g, db, &panicNet{inner: local}, Options{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard(t, 30*time.Second, "panic abort", func() {
		for id := range g.Nodes {
			rt.startProc(id, local.Boxes[id])
		}
		_, runErr := rt.drive(local.Boxes[len(g.Nodes)])
		local.Close()
		rt.wg.Wait()
		if !errors.Is(runErr, ErrNodePanic) {
			t.Errorf("err = %v, want ErrNodePanic", runErr)
		}
		if runErr != nil && !strings.Contains(runErr.Error(), "injected node failure") {
			t.Errorf("panic note lost: %v", runErr)
		}
	})
}

// chaosSites runs the graph across `sites` in-process "sites" (separate
// RunSites calls sharing one mailbox set) wired through a single FaultNet,
// and returns the driver's result/error. Every site gets the deadline as a
// backstop and the FaultNet's failure-detector channel, exactly as real
// mpqd processes would.
func chaosSites(t *testing.T, g *rgg.Graph, mkDB func() *edb.Database, sites int,
	configure func(fn *transport.FaultNet, hosts []int, locals *transport.Local),
	opts Options) (*Result, error, []error, int64) {
	t.Helper()
	hosts := Partition(g, sites)
	local := transport.NewLocal(len(g.Nodes) + 1)
	fn := transport.NewFaultNet(local, hosts, 1)
	defer fn.Close()
	if configure != nil {
		configure(fn, hosts, local)
	}
	opts.PeerDown = fn.Down()

	var wg sync.WaitGroup
	results := make([]*Result, sites)
	errs := make([]error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunSites(g, mkDB(), fn, local, hosts, i, opts)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos evaluation hung")
	}
	return results[0], errs[0], errs, fn.Stats.Snapshot().FaultDrops
}

// typedAbort reports whether err is one of the engine's typed failures —
// the only acceptable alternative to a byte-identical answer set.
func typedAbort(err error) bool {
	for _, want := range []error{ErrSiteDown, ErrDeadline, ErrCancelled, ErrNodePanic, ErrAborted} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestChaosSoak runs recursive workloads (the benchmark's E7/E11 shapes:
// transitive closure on a grid, and the paper's doubly recursive P1) across
// three sites under seeded fault schedules. The contract under every
// schedule: the driver either produces exactly the failure-free answers or
// returns a typed abort — it never hangs and never returns wrong answers
// silently. Cut schedules are permanent (no heal): the End watermark always
// travels the same link, after the tuples it covers, so losing tuples
// without losing their End is impossible and silent wrong answers cannot
// occur (see doc/PROTOCOL.md, "Failure model").
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	type scenario struct {
		name      string
		configure func(fn *transport.FaultNet, hosts []int, local *transport.Local)
		// strict means no abort is acceptable: the schedule loses no
		// messages, so answers must match exactly.
		strict bool
		// wantFaults requires the schedule to have actually dropped
		// messages — guarding against thresholds the workload never reaches
		// (a fault schedule that never fires tests nothing).
		wantFaults bool
	}
	// crashSite closes every mailbox the site hosts, exactly as if the OS
	// process died.
	crashSite := func(fn *transport.FaultNet, hosts []int, local *transport.Local, site, afterSends int) {
		fn.OnCrash(site, func() {
			for id, h := range hosts {
				if h == site {
					local.Boxes[id].Close()
				}
			}
		})
		fn.AddCrash(transport.SiteCrash{Site: site, AfterSends: afterSends})
	}
	scenarios := []scenario{
		{name: "clean", strict: true},
		{name: "delay-all", strict: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
					Delay: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
			}},
		{name: "cut-permanent", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				// The two busiest cross-site links: requests outbound from
				// the driver's site, answers inbound to it. Thresholds are
				// tiny because sideways information passing keeps cross-site
				// traffic to a handful of messages on these workloads.
				fn.AddLink(transport.LinkFault{From: 0, To: 1, CutAfter: 3})
				fn.AddLink(transport.LinkFault{From: 1, To: 0, CutAfter: 2})
			}},
		{name: "crash-site", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				crashSite(fn, hosts, local, 2, 2)
			}},
		{name: "delay-plus-crash", wantFaults: true,
			configure: func(fn *transport.FaultNet, hosts []int, local *transport.Local) {
				fn.AddLink(transport.LinkFault{From: transport.AnySite, To: transport.AnySite,
					Delay: 50 * time.Microsecond, Jitter: 200 * time.Microsecond})
				crashSite(fn, hosts, local, 1, 15)
			}},
	}

	for _, wl := range []struct {
		name string
		prog func() *ast.Program // deterministic: every call builds the identical program
	}{
		{"tc-grid", func() *ast.Program {
			return workload.Program(workload.TCRules, workload.Grid("edge", 6, 6))
		}},
		{"p1-random", func() *ast.Program {
			return workload.Program(workload.P1Rules, workload.P1Data(40, 0.08, rand.New(rand.NewSource(11))))
		}},
	} {
		wl := wl
		g, err := rgg.Build(wl.prog(), rgg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Each site loads its own DB copy, exactly as real mpqd sites would.
		mkDB := func() *edb.Database { return workload.DB(wl.prog()) }
		baselineRes, err := Run(g, mkDB(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline := renderSet(baselineRes.Answers, mkDB())

		for _, sc := range scenarios {
			sc := sc
			t.Run(wl.name+"/"+sc.name, func(t *testing.T) {
				res, derr, errs, faultDrops := chaosSites(t, g, mkDB, 3, sc.configure,
					Options{Context: within(t, 4*time.Second)})
				for i, e := range errs[1:] {
					if e != nil && !typedAbort(e) {
						t.Errorf("site %d returned untyped error: %v", i+1, e)
					}
				}
				switch {
				case derr == nil:
					if got := renderSet(res.Answers, mkDB()); got != baseline {
						t.Errorf("answers diverged under %s:\n got %s\nwant %s", sc.name, got, baseline)
					}
				case typedAbort(derr):
					if sc.strict {
						t.Errorf("lossless schedule aborted: %v", derr)
					}
				default:
					t.Errorf("untyped driver error: %v", derr)
				}
				if sc.wantFaults && faultDrops == 0 {
					t.Errorf("fault schedule never fired (0 drops): thresholds too high for this workload")
				}
				t.Logf("driver err=%v faultDrops=%d", derr, faultDrops)
			})
		}
	}
}

// TestDriverMailboxCloseAborts pins the driveStream fix: a driver mailbox
// that closes mid-query (the site torn down under the driver, e.g. an
// injected crash racing the watchdog) must surface as a typed error, never
// as a silently partial answer set returned with a nil error.
func TestDriverMailboxCloseAborts(t *testing.T) {
	g, db := slowWorkload(t)
	guard(t, 30*time.Second, "driver mailbox close", func() {
		n := len(g.Nodes)
		local := transport.NewLocal(n + 1)
		rt, err := newRunner(g, db, local, Options{EDBDelay: 2 * time.Millisecond}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := range g.Nodes {
			rt.startProc(id, local.Boxes[id])
		}
		go func() {
			time.Sleep(10 * time.Millisecond)
			local.Close()
		}()
		res, err := rt.driveStream(local.Boxes[n], nil)
		if !errors.Is(err, ErrSiteDown) {
			t.Errorf("err = %v, want ErrSiteDown", err)
		}
		if res != nil {
			t.Error("partial answers returned as success after the mailbox closed")
		}
		rt.wg.Wait()
	})
}

// TestWatchdogSurvivesClosedPeerDownChannel pins the startWatch fix: a
// PeerDown channel that is closed without ever delivering an event must not
// disarm the watchdog — a later cancellation still has to abort the
// evaluation.
func TestWatchdogSurvivesClosedPeerDownChannel(t *testing.T) {
	g, db := slowWorkload(t)
	local := transport.NewLocal(len(g.Nodes) + 1)
	rt, err := newRunner(g, db, local, Options{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pd := make(chan transport.PeerDown)
	close(pd) // closed immediately, no event ever sent
	ctx, cancel := context.WithCancel(context.Background())
	stop := rt.startWatch(Options{PeerDown: pd, Context: ctx})
	defer stop()

	time.Sleep(10 * time.Millisecond) // let the watchdog observe the close
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for rt.abortError() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := rt.abortError(); !errors.Is(err, ErrCancelled) {
		t.Errorf("abort error = %v, want ErrCancelled (watchdog parked by the closed PeerDown channel?)", err)
	}
}

// TestRunSitesDeadlineAndCancelTaxonomy: a context that ends mid-query
// aborts every site of a multi-site run, and every site's error satisfies
// both taxonomies — the engine sentinel and the context sentinel — whether
// the site saw its own context end or an Abort relayed from a peer.
func TestRunSitesDeadlineAndCancelTaxonomy(t *testing.T) {
	g, _ := slowWorkload(t)
	mkDB := func() *edb.Database { _, db := slowWorkload(t); return db }
	for _, tc := range []struct {
		name              string
		ctx               func() context.Context
		engineErr, ctxErr error
	}{
		{"deadline", func() context.Context { return within(t, 25*time.Millisecond) },
			ErrDeadline, context.DeadlineExceeded},
		{"cancel", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			time.AfterFunc(25*time.Millisecond, cancel)
			return ctx
		}, ErrCancelled, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, errs, _ := chaosSites(t, g, mkDB, 2, nil,
				Options{Context: tc.ctx(), EDBDelay: 2 * time.Millisecond})
			for i, err := range errs {
				if !errors.Is(err, tc.engineErr) || !errors.Is(err, tc.ctxErr) {
					t.Errorf("site %d: err = %v, want %v and %v", i, err, tc.engineErr, tc.ctxErr)
				}
			}
		})
	}
}

// TestNilContextNeverCancels: a nil Options.Context and a nil Round
// context both mean "never cancelled"; embedders that pass neither (the
// benchmark harness among them) get complete runs.
func TestNilContextNeverCancels(t *testing.T) {
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 10))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := workload.DB(prog)
	guard(t, 30*time.Second, "nil-context run", func() {
		res, err := Run(g, db, Options{Context: nil})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() != 9 {
			t.Errorf("Run: %d answers, want 9", res.Answers.Len())
		}
		inc := NewPlan(g, db).Incremental(Options{})
		if res, err = inc.Round(nil, nil); err != nil || res.Answers.Len() != 9 {
			t.Fatalf("first Round(nil): %v, %v", res, err)
		}
		db.Add("edge", "n9", "n10")
		if res, err = inc.Round(nil, nil); err != nil || res.Answers.Len() != 1 {
			t.Fatalf("delta Round(nil): %v, %v", res, err)
		}
	})
}
