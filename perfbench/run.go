package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/serve"
)

// run is one invocation of one workload.
type run struct {
	name string
	w    workloadSpec
	seed int64
	secs float64
	tmp  string // scratch directory for disk stores, inside the checkout

	t       tally
	lat     map[string][][]time.Duration // end-to-end latency samples by op kind, one slice per round
	qps     []float64                    // closed-loop read rate, one per round
	lags    []time.Duration              // open-loop sender lateness
	metrics map[string]float64
	notes   []string // report lines beyond the metrics
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// rounds is how many times a run repeats its sequence of phases. Each
// metric is the median of its per-round values, so a stall of the shared
// host moves one round rather than the result.
const rounds = 5

// phaseTime is one round of a phase: its share of the run over rounds.
func (r *run) phaseTime(p phaseSpec) time.Duration {
	return time.Duration(p.Share * r.secs / rounds * float64(time.Second))
}

// opens is an open-loop phase's request count per round.
func (r *run) opens(p phaseSpec) int { return max(1, int(p.Rate*p.Share*r.secs/rounds)) }

// deployment is a System served on a loopback listener.
type deployment struct {
	sys    *mpq.System
	srv    *serve.Server
	addr   string
	served chan error
	dir    string // the disk store's directory ("" for memory)
}

func deploy(sys *mpq.System, cfg serve.Config) (*deployment, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, srv: serve.New(sys, cfg), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the server, waits for it to return, and closes the System.
func (d *deployment) close() error {
	d.srv.Close()
	err := <-d.served
	if cerr := d.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// dialN opens n connections to the deployment.
func (d *deployment) dialN(n int) ([]*client, error) {
	var cs []*client
	for range n {
		c, err := dial(d.addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// setUp generates the workload, loads it, serves it and answers probe
// over the wire; it is the unit setup_s times. It repeats the whole
// sequence w.Setups times, keeping the last deployment, and records the
// median.
func (r *run) setUp(load func(dir string) (*mpq.System, error), cfg serve.Config, probe string, times int) (*deployment, error) {
	var took []time.Duration
	var d *deployment
	for k := range times {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.dir)
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := ""
		if r.w.Store == "disk" {
			dir = filepath.Join(r.tmp, fmt.Sprintf("store-%d", k))
		}
		t0 := time.Now()
		sys, err := load(dir)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		if d, err = deploy(sys, cfg); err != nil {
			sys.Close()
			return nil, err
		}
		d.dir = dir
		c, err := dial(d.addr)
		if err != nil {
			d.close()
			return nil, err
		}
		err = c.send(probe)
		var rp reply
		if err == nil {
			rp, err = c.readReply()
		}
		c.close()
		if err == nil && rp.kind != '.' {
			err = fmt.Errorf("probe %q: %c %s", probe, rp.kind, rp.msg)
		}
		if err != nil {
			d.close()
			return nil, err
		}
		took = append(took, time.Since(t0))
	}
	slices.Sort(took)
	r.metrics["setup_s"] = took[len(took)/2].Seconds()
	r.notef("setup_s: median of %d set-ups %v", len(took), took)
	return d, nil
}

// openPhase runs ops as an open loop on fresh connections and checks the
// results.
func (r *run) openPhase(d *deployment, p phaseSpec, ops []op) ([]result, error) {
	cs, err := d.dialN(p.Conns)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	res := openLoop(cs, ops, p.Rate)
	r.lags = append(r.lags, genLag(res)...)
	r.t.check(ops, res)
	return res, nil
}

// closedPhase runs a closed loop over gen's stream on fresh connections.
// Results are returned unchecked.
func (r *run) closedPhase(d *deployment, p phaseSpec, gen func(n int) []op) ([]op, []result, error) {
	cs, err := d.dialN(p.Conns)
	if err != nil {
		return nil, nil, err
	}
	defer closeAll(cs)
	t0 := time.Now()
	ops, res := closedLoop(cs, &stream{gen: gen}, r.phaseTime(p))
	took := time.Since(t0)
	ok := 0
	for _, x := range res {
		if x.err == nil && x.rp.kind == '.' {
			ok++
		}
	}
	r.qps = append(r.qps, float64(ok)/took.Seconds())
	r.notef("closed loop: %d reads on %d connection(s) in %v", len(res), p.Conns, took.Round(time.Millisecond))
	return ops, res, nil
}

// writePhase subscribes to query on one connection and sends writes as an
// open loop on another. want is the view's answer set before the writes;
// every write must extend it by its new node. It checks the acks, that
// every extending write reached the subscriber, and that the frames'
// union is the final view, and returns the results and frames.
func (r *run) writePhase(d *deployment, p phaseSpec, query string, want []string, ops []op, final func() []string) ([]result, error) {
	sc, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	sub, err := subscribe(sc, query)
	if err != nil {
		sc.close()
		return nil, err
	}
	r.t.attempted++
	if err := sameSet(frameUnion(sub.first, nil), want); err != nil {
		r.t.fail("initial subscription frame of %s: %v", query, err)
	}
	res, err := r.openPhase(d, p, ops)
	if err != nil {
		sub.stop(0, 0)
		return nil, err
	}
	// Only writes that extend the view produce frames.
	var last uint64
	for i, x := range res {
		if ops[i].extends && x.err == nil && x.rp.kind == '+' {
			last = max(last, x.rp.ver)
		}
	}
	frames := sub.stop(last, 10*time.Second)
	lat, missed := deltaLatencies(ops, res, frames)
	r.t.attempted += len(lat) + len(missed)
	for _, w := range missed {
		r.t.fail("no subscription frame covered %q", w)
	}
	r.lat["write"] = append(r.lat["write"], latencies(ops, res, isWrite))
	r.lat["delta"] = append(r.lat["delta"], lat)
	r.t.attempted++
	if err := sameSet(frameUnion(sub.first, frames), final()); err != nil {
		r.t.fail("subscription %s: %v", query, err)
	}
	r.notef("%s: %d ops at %.0f/s, %d frames, %d deltas timed", p.Name, len(ops), p.Rate, len(frames), len(lat))
	return res, nil
}

// tailQuantile is p90, or the highest quantile below it with at least
// ten samples beyond it (but at least the median).
func tailQuantile(n int) float64 { return max(0.5, min(0.9, 1-10/float64(n))) }

// median of the values; it sorts them.
func median(vs []float64) float64 {
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// finish turns the per-round samples into metrics: the median over rounds
// of each round's p50 and tail percentile.
func (r *run) finish() error {
	for _, kind := range []string{"read", "write", "delta"} {
		var p50, tail []float64
		var pooled []time.Duration
		q := 0.0
		for _, ds := range r.lat[kind] {
			if len(ds) == 0 {
				return fmt.Errorf("%s latency: a round has no samples", kind)
			}
			v, _ := quantile(ds, 0.5)
			p50 = append(p50, v)
			q = tailQuantile(len(ds))
			v, _ = quantile(ds, q)
			tail = append(tail, v)
			pooled = append(pooled, ds...)
		}
		if len(p50) == 0 {
			return fmt.Errorf("%s latency: no samples", kind)
		}
		r.metrics[kind+"_p50_ms"] = median(p50)
		r.metrics[kind+"_p90_ms"] = median(tail)
		p99, _ := quantile(pooled, 0.99)
		r.notef("%s latency: %d samples in %d rounds; %s_p90_ms reports p%.4g; pooled p99 %.4f ms", kind, len(pooled), len(p50), kind, 100*q, p99)
		r.notef("  rounds, sorted: p50 %.4f, tail %.4f", p50, tail)
	}
	r.metrics["read_qps"] = median(r.qps)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
