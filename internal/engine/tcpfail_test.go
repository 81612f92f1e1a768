package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/rgg"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestTCPSiteKillReturnsErrSiteDown is the acceptance criterion for this
// PR's failure handling: kill a non-driver site's process mid-query and the
// driver must return ErrSiteDown within the configured detection window —
// not hang. Heartbeats notice the dead socket, the reconnect window runs
// out, the transport emits PeerDown, and the engine's watchdog aborts.
func TestTCPSiteKillReturnsErrSiteDown(t *testing.T) {
	const sites = 3
	prog := workload.Program(workload.TCRules, workload.Chain("edge", 300))
	g, err := rgg.Build(prog, rgg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := Partition(g, sites)

	cfg := transport.Config{
		DialTimeout:       500 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		BaseBackoff:       5 * time.Millisecond,
		MaxBackoff:        50 * time.Millisecond,
	}
	addrs := make([]string, sites)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	locals := make([]*transport.Local, sites)
	nets := make([]*transport.TCP, sites)
	for i := 0; i < sites; i++ {
		c := cfg
		c.Stats = &trace.Stats{}
		locals[i] = transport.NewLocal(len(g.Nodes) + 1)
		n, err := transport.NewTCPConfig(i, addrs, hosts, locals[i], c)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = n.Addr()
		nets[i] = n
	}
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()

	// Pick a victim: any non-driver site hosting at least one node.
	victim := -1
	for s := 1; s < sites; s++ {
		for _, h := range hosts {
			if h == s {
				victim = s
				break
			}
		}
		if victim != -1 {
			break
		}
	}
	if victim == -1 {
		t.Fatal("partition left all non-driver sites empty")
	}

	var wg sync.WaitGroup
	errs := make([]error, sites)
	start := time.Now()
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// EDBDelay stretches the query into the hundreds of
			// milliseconds so the kill lands mid-flight. The context
			// deadline is a backstop only — the test asserts the kill is detected as
			// ErrSiteDown, far sooner.
			opts := Options{
				EDBDelay: 5 * time.Millisecond,
				Context:  within(t, 60*time.Second),
				PeerDown: nets[i].Down(),
			}
			siteDB := workload.DB(workload.Program(workload.TCRules, workload.Chain("edge", 300)))
			_, errs[i] = RunSites(g, siteDB, nets[i], locals[i], hosts, i, opts)
		}(i)
	}

	// Let the query get going, then kill the victim the way an OS would:
	// sockets die, its node processes stop.
	time.Sleep(100 * time.Millisecond)
	nets[victim].Close()
	locals[victim].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("driver did not return after a site was killed")
	}
	elapsed := time.Since(start)

	if !errors.Is(errs[0], ErrSiteDown) {
		t.Fatalf("driver returned %v, want ErrSiteDown", errs[0])
	}
	// Detection budget: heartbeat timeout (4×20ms) + dial window (500ms)
	// + scheduling slack — far below the 60s deadline backstop.
	if elapsed > 15*time.Second {
		t.Errorf("ErrSiteDown took %v, want within the configured detection window", elapsed)
	}
	t.Logf("driver aborted with %v after %v", errs[0], elapsed)
}
