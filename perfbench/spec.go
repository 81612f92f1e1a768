package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's own record of every workload's generator
// parameters, fixed rates, client counts and flush policy, and of every
// metric's unit and the end-to-end metric each layer metric should move.
// BENCHMARK.json repeats the workloads, names and units in its own fixed
// schema, which has no room for the rest.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	Workloads map[string]workloadSpec `json:"workloads"`
	Metrics   []metricSpec            `json:"metrics"`
}

// workloadSpec holds what the code reads; spec.json also records each
// workload's flush policy and each phase's loop kind for the reader.
type workloadSpec struct {
	Why      string `json:"why"`
	Store    string `json:"store"`
	Strategy string `json:"strategy"`
	// Generator holds the data generator's parameters, named as in the
	// workload's code.
	Generator map[string]float64 `json:"generator"`
	Phases    []phaseSpec        `json:"phases"`
	Setups    int                `json:"setups"`
}

// phaseSpec is one load phase: an open loop at Rate ops/s or a closed loop,
// on Conns connections, for Share of the run's seconds.
type phaseSpec struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
	Conns int     `json:"conns"`
	Rate  float64 `json:"rate,omitempty"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  bool   `json:"layer"`
	// ReportOnly metrics are printed in the report but left out of the
	// result line and BENCHMARK.json: their run-to-run spread on a shared
	// host exceeds the largest regression bound BENCHMARK.json may set.
	ReportOnly bool `json:"report_only,omitempty"`
	// Moves and On name the end-to-end metric a layer metric should move
	// and the workloads where it should.
	Moves string   `json:"moves,omitempty"`
	On    []string `json:"on,omitempty"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (w workloadSpec) phase(name string) phaseSpec {
	for _, p := range w.Phases {
		if p.Name == name {
			return p
		}
	}
	panic("spec.json: workload has no phase " + name)
}

func (w workloadSpec) gen(name string) int {
	v, ok := w.Generator[name]
	if !ok {
		panic("spec.json: workload has no generator parameter " + name)
	}
	return int(v)
}
