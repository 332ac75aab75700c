// Command experiments runs the reproduction harness of DESIGN.md: the figures
// (F1–F5), the evaluated claims (E1–E10, E12, E13) and the ablations (A1–A3),
// printing the tables that EXPERIMENTS.md records. It also generates and
// verifies the two committed benchmark artifacts, BENCH_cluster.json and
// BENCH_netsim.json.
//
// Usage:
//
//	experiments [-seed N] [-quick] [-only F2,E3]
//	experiments -cluster|-netsim out.json
//	experiments -verify-bench dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchmarks are the artifact generators: each flag takes the path its JSON
// report is written to. A generator returns only after its report passed the
// gates bench-verify holds the committed file to.
var benchmarks = []struct {
	flag, usage string
	run         func() (*stats.Table, any, error)
}{
	{"cluster", "run the federated-cluster load/chaos benchmark and write its JSON results to this path",
		func() (*stats.Table, any, error) { return experiments.Cluster(nil) }},
	{"netsim", "run the sharded discrete-event simulator benchmark and write its JSON results to this path",
		func() (*stats.Table, any, error) { return experiments.Netsim(nil) }},
}

// table lists every experiment in print order.
var table = []struct {
	id  string
	run func(seed uint64, quick bool) (*stats.Table, error)
}{
	{"F1", func(uint64, bool) (*stats.Table, error) { return experiments.F1Grammar() }},
	{"F2", func(uint64, bool) (*stats.Table, error) {
		chart, tb, err := experiments.F2Timeline()
		if err == nil {
			fmt.Println("== F2 — Figure 2 timeline (reconstructed from the markup) ==")
			fmt.Println(chart)
		}
		return tb, err
	}},
	{"F3", func(seed uint64, _ bool) (*stats.Table, error) {
		tb, _, err := experiments.F3EndToEnd(seed)
		return tb, err
	}},
	{"F4", func(uint64, bool) (*stats.Table, error) { return experiments.F4Protocol() }},
	{"F5", func(seed uint64, _ bool) (*stats.Table, error) {
		tb, _, err := experiments.F5StackSplit(seed)
		return tb, err
	}},
	{"E1", experiments.E1TimeWindow},
	{"E2", seeded(experiments.E2SkewControl)},
	{"E3", seeded(experiments.E3Grading)},
	{"E4", seeded(experiments.E4Combined)},
	{"E5", seeded(experiments.E5Admission)},
	{"E6", seeded(experiments.E6Startup)},
	{"E7", seeded(experiments.E7Suspend)},
	{"E8", experiments.E8Search},
	{"E9", experiments.E9Scale},
	{"E10", seeded(experiments.E10SharedUplink)},
	{"E12", seeded(experiments.E12FlightRecorder)},
	{"E13", func(uint64, bool) (*stats.Table, error) { return experiments.E13Cluster() }},
	{"A1", seeded(experiments.A1DegradeOrder)},
	{"A2", seeded(experiments.A2Hysteresis)},
	{"A3", seeded(experiments.A3WindowSafety)},
}

// seeded adapts an experiment that has no quick variant.
func seeded(run func(uint64) (*stats.Table, error)) func(uint64, bool) (*stats.Table, error) {
	return func(seed uint64, _ bool) (*stats.Table, error) { return run(seed) }
}

func die(what string, err error) {
	fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", what, err)
	os.Exit(1)
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "shrink parameter sweeps")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. F2,E3); empty = all")
	verifyBench := flag.String("verify-bench", "", "validate every committed BENCH_*.json under this directory against its schema and gates, then exit")
	benchOut := make([]*string, len(benchmarks))
	for i, b := range benchmarks {
		benchOut[i] = flag.String(b.flag, "", b.usage)
	}
	flag.Parse()

	if *verifyBench != "" {
		summary, err := experiments.VerifyBenchFiles(*verifyBench)
		if err != nil {
			die("bench-verify", err)
		}
		fmt.Print(summary)
		return
	}

	for i, b := range benchmarks {
		path := *benchOut[i]
		if path == "" {
			continue
		}
		tb, rep, err := b.run()
		if err != nil {
			die(b.flag, err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			die(b.flag, err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			die(b.flag, err)
		}
		fmt.Println(tb)
		fmt.Printf("wrote %s\n", path)
		return
	}

	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToUpper(*only), ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "unknown experiment id %q; valid ids: %s\n", id, strings.Join(ids, ","))
			os.Exit(2)
		}
		want[id] = true
	}

	fail := 0
	for _, e := range table {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		tb, err := e.run(*seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			fail++
			continue
		}
		fmt.Println(tb)
	}
	if fail > 0 {
		os.Exit(1)
	}
}
