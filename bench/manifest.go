package main

import (
	"encoding/json"
	"strings"
)

// The manifest is BENCHMARK.json at the repository root: what the driver
// runs and which metrics it expects on the result line. It is generated
// from the same tables the program reports from (bench -manifest), and a
// test keeps the committed file equal to it.

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// defaultSeconds is the timed budget of a run, here and in the manifest.
const defaultSeconds = 15

// higherIsBetter lists the per-layer metrics where more is better; every
// other one is a cost or a count of work done.
var higherIsBetter = map[string]bool{
	"client.frames_presented": true,
	"viewer_s_per_s":          true,
	"ctrl_reqs_per_s":         true,
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		if d.everywhere {
			bound := d.bound
			m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, "lower", &bound})
		}
	}
	// The per-layer names and units are whatever a traced run reports.
	empty := result{wl: workloads[0], traced: []tracedRep{{}}, timed: []hostCost{{}}}
	for _, rd := range empty.perLayer(nil) {
		better := "lower"
		if higherIsBetter[rd.name] {
			better = "higher"
		}
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: rd.name, Unit: rd.unit, Better: better})
	}
	return m
}

func (m manifest) String() string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // plain strings and finite numbers only
	}
	return b.String()
}
