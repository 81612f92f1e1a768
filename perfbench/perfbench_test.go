package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// streams renders a workload's program and a fixed-length prefix of its
// request stream, as sent on the wire.
func streams(t *testing.T, name string, seed int64) string {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := sp.Workloads[name]
	var ops []op
	var src string
	switch name {
	case "point-serve":
		m := newTreeModel(w, seed)
		src = m.source()
		ops = append(m.reads(2000), m.up.writes(100)...)
	case "recursive-mix":
		m := newMixModel(w, seed)
		src = m.source()
		ops = append(m.reads(300), m.up.writes(100)...)
	case "write-subscribe":
		m := newChainModel(w, seed)
		src = m.source()
		ops = append(m.mixed(2000), m.reads(200)...)
	default:
		t.Fatalf("no stream for workload %s", name)
	}
	var b strings.Builder
	b.WriteString(src)
	for _, o := range ops {
		b.WriteString(o.line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range []string{"point-serve", "recursive-mix", "write-subscribe"} {
		a, b := streams(t, name, 7), streams(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 produced two different request streams", name)
		}
		if a == streams(t, name, 8) {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", name)
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndMapping(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	e2e := make(map[string]bool)
	for _, m := range sp.Metrics {
		if !m.Layer {
			e2e[m.Name] = true
		}
	}
	seen := make(map[string]bool)
	for _, m := range sp.Metrics {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !m.Layer {
			continue
		}
		if !e2e[m.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		if len(m.On) == 0 {
			t.Errorf("%s: names no workload", m.Name)
		}
		for _, w := range m.On {
			if _, ok := sp.Workloads[w]; !ok {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if ws, ok := sp.Workloads[w.Name]; !ok || ws.Why != w.Why {
			t.Errorf("BENCHMARK.json workload %s does not match spec.json", w.Name)
		}
	}
	if len(bf.Workloads) != len(sp.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, spec.json %d", len(bf.Workloads), len(sp.Workloads))
	}
	var listed []string
	check := func(name, unit, better string, layer bool) {
		listed = append(listed, name)
		i := slices.IndexFunc(sp.Metrics, func(m metricSpec) bool { return m.Name == name })
		if i < 0 || sp.Metrics[i].Unit != unit || sp.Metrics[i].Better != better || sp.Metrics[i].Layer != layer || sp.Metrics[i].ReportOnly {
			t.Errorf("BENCHMARK.json metric %s does not match spec.json", name)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	want := 0
	for _, m := range sp.Metrics {
		if !m.ReportOnly {
			want++
		}
	}
	if len(listed) != want {
		t.Errorf("BENCHMARK.json lists %d metrics, spec.json %d", len(listed), want)
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, name := range []string{"point-serve", "recursive-mix", "write-subscribe"} {
		for _, traced := range []bool{false, true} {
			r, err := execute(name, 3, 5, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, r.Failed, r.Attempted)
			}
		}
	}
}
