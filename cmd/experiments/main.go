// Command experiments runs the reproduction harness of DESIGN.md: the figures
// (F1–F5), the evaluated claims (E1–E10, E12, E13) and the ablations
// (A1–A3), printing the tables that EXPERIMENTS.md records. Every experiment
// is one row of table; an experiment that gates its result (E13) fails the
// run instead of printing. Every byte printed is a function of the seed.
//
// Usage:
//
//	experiments [-seed N] [-quick] [-only F2,E3]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
)

type experiment struct {
	id  string
	run func(seed uint64, quick bool) (*stats.Table, error)
}

// table lists every experiment in print order. stdout is where F2 draws its
// chart ahead of its table.
func table(stdout io.Writer) []experiment {
	return []experiment{
		{"F1", func(uint64, bool) (*stats.Table, error) { return experiments.F1Grammar() }},
		{"F2", func(uint64, bool) (*stats.Table, error) {
			chart, tb, err := experiments.F2Timeline()
			if err == nil {
				fmt.Fprintln(stdout, "== F2 — Figure 2 timeline (reconstructed from the markup) ==")
				fmt.Fprintln(stdout, chart)
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
}

// seeded adapts an experiment that has no quick variant.
func seeded(run func(uint64) (*stats.Table, error)) func(uint64, bool) (*stats.Table, error) {
	return func(seed uint64, _ bool) (*stats.Table, error) { return run(seed) }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process state passed in; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "shrink parameter sweeps")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. F2,E3); empty = all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	tbl := table(stdout)
	ids := make([]string, len(tbl))
	for i, e := range tbl {
		ids[i] = e.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToUpper(*only), ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(stderr, "unknown experiment id %q; valid ids: %s\n", id, strings.Join(ids, ","))
			return 2
		}
		want[id] = true
	}

	fail := 0
	for _, e := range tbl {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		tb, err := e.run(*seed, *quick)
		if err != nil {
			fmt.Fprintf(stderr, "%s FAILED: %v\n", e.id, err)
			fail++
			continue
		}
		fmt.Fprintln(stdout, tb)
	}
	if fail > 0 {
		return 1
	}
	return 0
}
