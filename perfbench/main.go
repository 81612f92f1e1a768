// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload from a seed, serves it from an in-process
// serve.Server on a loopback listener, drives it over the line protocol,
// checks every answer, and prints the workload's metrics.
//
//	perfbench --workload point-serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant and prints the per-layer metrics (see trace.go). A
// human-readable report goes to standard error; the last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 1 when any check failed, 2 when the run
// could not complete. It runs on Linux only: it reads /proc/self/status
// and paces its open loops with nanosleep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: point-serve, recursive-mix or write-subscribe")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 30, "how long the measured phases run in total")
	traced := flag.Int("trace", 0, "1: run the traced variant and print per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its span file to")
	flag.Parse()
	res, err := execute(*workload, *seed, *seconds, *traced == 1, *spans)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(res); err == nil {
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// execute runs one workload and returns its result.
func execute(name string, seed int64, seconds float64, traced bool, spanDir string) (*resultOut, error) {
	sp, err := loadSpec()
	if err != nil {
		return nil, err
	}
	w, ok := sp.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{name: name, w: w, seed: seed, secs: seconds, tmp: tmp,
		lat: make(map[string][][]time.Duration), metrics: make(map[string]float64)}
	if traced {
		err = r.traced(spanDir)
	} else {
		err = r.plain()
	}
	if err != nil {
		return nil, err
	}
	res := &resultOut{Attempted: r.t.attempted, Failed: r.t.failed, Metrics: make(map[string]metricOut)}
	res.Correct = r.t.failed == 0 && r.t.attempted > 0
	for _, m := range sp.Metrics {
		if m.Layer != traced || m.ReportOnly {
			continue
		}
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	r.report(os.Stderr, sp)
	return res, nil
}

// plain is the untraced run: the workload's phases, then its metrics.
func (r *run) plain() error {
	var err error
	switch r.name {
	case "point-serve":
		err = r.pointServe()
	case "recursive-mix":
		err = r.recursiveMix()
	case "write-subscribe":
		err = r.writeSubscribe()
	}
	if err != nil {
		return err
	}
	return r.finish()
}

// report prints every measured value with its unit, then the notes and
// the first failures.
func (r *run) report(w *os.File, sp *spec) {
	units := make(map[string]string)
	for _, m := range sp.Metrics {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s seed=%d seconds=%g\n", r.name, r.seed, r.secs)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, r.metrics[n], units[n])
	}
	frac := 0.0
	if r.t.attempted > 0 {
		frac = float64(r.t.failed) / float64(r.t.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.4f share (%d of %d operations)\n", "failed_frac", frac, r.t.failed, r.t.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, n := range r.t.notes {
		fmt.Fprintln(w, "  FAILED: "+n)
	}
}
