package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// runAgree is the noise floor as a command: the whole suite twice with the
// same code and seed, every run in a process of its own exactly as the
// driver runs it. The two runs of a workload are back to back, because on a
// shared host the machine's speed drifts over minutes and the question here
// is what two runs of one program disagree by, not how the host's day went.
// For every workload × end-to-end metric it prints the two values, their
// relative difference beside the metric's bound, and the inter-quartile
// spread inside each run; it fails if any pair differs by more than the
// bound, or if a sim_digest differs at all.
func runAgree(w io.Writer, seed uint64, seconds int) error {
	fmt.Fprintf(w, "host: %d CPUs (nproc), GOMAXPROCS %d, %s; seed %d; every workload twice, one process per run\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var passes [2][]passReport
	for _, wl := range workloads {
		for pass := range passes {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-readings")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, pass %d: %w", wl.name, pass+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep passReport
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || rep.Readings == nil {
				return fmt.Errorf("%s, pass %d: no readings in %q", wl.name, pass+1, lines[len(lines)-1])
			}
			passes[pass] = append(passes[pass], rep)
		}
	}

	defs := map[string]metricDef{}
	for _, d := range endToEndDefs {
		defs[d.name] = d
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpass 1\tpass 2\tdiff\tbound\tIQR 1\tIQR 2\t")
	for i, a := range passes[0] {
		b, name := passes[1][i], workloads[i].name
		verdict := ""
		if a.Digest != b.Digest || a.Failed != b.Failed {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\tidentical\t\t\t%s\n", name, a.Digest, b.Digest, verdict)
		fmt.Fprintf(tw, "%s\tops_failed/ops\t%d/%d\t%d/%d\t\tidentical\t\t\t\n", name, a.Failed, a.Ops, b.Failed, b.Ops)
		for j, ra := range a.Readings {
			rb, d := b.Readings[j], defs[ra.Name]
			verdict := ""
			if !agrees(d, ra.Value, rb.Value) {
				verdict = "DISAGREE"
				bad++
			}
			spread := func(s float64) string {
				if s == 0 {
					return "" // simulated, or one value per process
				}
				return fmt.Sprintf("%.1f %%", 100*s)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f %%\t%s\t%s\t%s\t%s\n",
				name, ra.Name, ra.Value, rb.Value, 100*(rb.Value-ra.Value)/ra.Value, boundText(d),
				spread(ra.Spread), spread(rb.Spread), verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d pair(s) disagree by more than their bound", bad)
	}
	fmt.Fprintln(w, "\nevery pair agrees within its bound")
	return nil
}

// agrees reports whether two readings of one metric differ by no more than
// its bound, relative to the first.
func agrees(d metricDef, a, b float64) bool {
	return math.Abs(b-a) <= math.Abs(a)*d.bound+d.slack
}
