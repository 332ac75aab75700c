package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef describes one end-to-end metric. Every value is either
// simulated time (what the viewer would experience: exact for a seed) or
// host time/memory (what our code costs: noisy, reported as the median over
// the timed repetitions).
type metricDef struct {
	name  string
	unit  string
	base  string  // "host", "simulated" or "count"
	bound float64 // share of the reference by which it may get worse
	slack float64 // absolute allowance on top of bound
	// everywhere marks the metrics defined (and never 0) on all four
	// workloads: the ones BENCHMARK.json gates.
	everywhere bool
}

// endToEndDefs is the benchmark's end-to-end glossary; lower is better for
// all. BENCHMARK.json and README.md repeat it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "host", 0.25, 0, true},
	{"run_s", "s", "host", 0.25, 0, true},
	{"alloc_mb", "MB", "count", 0.12, 0, true},
	{"peak_rss_mb", "MB", "host", 0.10, 0, true},
	{"connect_ms_p50", "ms", "simulated", 0.05, 0, true},
	{"connect_ms_tail", "ms", "simulated", 0.15, 0, true},
	{"startup_ms_p50", "ms", "simulated", 0.05, 0, false},
	{"startup_ms_tail", "ms", "simulated", 0.05, 0, false},
	{"miss_ratio", "ratio", "simulated", 0.10, 0.0005, false},
	{"skew_ms_tail", "ms", "simulated", 0.05, 0, false},
	{"handoff_ms_p50", "ms", "simulated", 0.05, 0, false},
	{"recover_ms_p50", "ms", "simulated", 0.05, 0, false},
	{"recover_ms_tail", "ms", "simulated", 0.05, 0, false},
}

// reading is one measured metric of one run.
type reading struct {
	metricDef
	value  float64
	spread float64 // inter-quartile range ÷ median over the timed repetitions (host metrics)
	note   string
}

const mb = 1e6

func column(hc []hostCost, pick func(hostCost) float64) []float64 {
	xs := make([]float64, len(hc))
	for i, c := range hc {
		xs[i] = pick(c)
	}
	return xs
}

// endToEnd returns the end-to-end metrics this workload reports, in
// glossary order.
func (r *result) endToEnd() []reading {
	o := &r.outcome
	vals := map[string]reading{}
	hostOf := func(name string, xs []float64, what string) {
		m, q := median(xs), iqr(xs)
		vals[name] = reading{value: m, spread: q / m,
			note: fmt.Sprintf("median of %d %s, IQR %.1f %%", len(xs), what, 100*q/m)}
	}
	host := func(name string, pick func(hostCost) float64) { hostOf(name, column(r.timed, pick), "repetitions") }
	p50 := func(name string, xs []float64) {
		vals[name] = reading{value: median(xs), note: fmt.Sprintf("n=%d", len(xs))}
	}
	top := func(name string, xs []float64) {
		v, level := tail(xs)
		vals[name] = reading{value: v, note: fmt.Sprintf("p%g, n=%d", level, len(xs))}
	}

	var setups []float64
	for _, c := range r.timed {
		for _, d := range c.setup {
			setups = append(setups, d.Seconds())
		}
	}
	hostOf("setup_s", setups, "set-ups")
	host("run_s", func(c hostCost) float64 { return c.run.Seconds() })
	host("alloc_mb", func(c hostCost) float64 { return float64(c.allocBytes) / mb })
	vals["peak_rss_mb"] = reading{value: float64(r.rssBytes) / mb, note: "getrusage max RSS at exit"}
	p50("connect_ms_p50", o.connectMS)
	top("connect_ms_tail", o.connectMS)
	if r.wl.media {
		p50("startup_ms_p50", o.startupMS)
		top("startup_ms_tail", o.startupMS)
		vals["miss_ratio"] = reading{value: float64(o.gaps) / float64(o.due),
			note: fmt.Sprintf("%d gaps / %d frames due", o.gaps, o.due)}
		top("skew_ms_tail", o.skewMS)
	}
	if r.wl.killAt > 0 {
		p50("handoff_ms_p50", o.handoffMS)
		p50("recover_ms_p50", o.recoverMS)
		top("recover_ms_tail", o.recoverMS)
	}
	var out []reading
	for _, d := range endToEndDefs {
		if rd, ok := vals[d.name]; ok {
			rd.metricDef = d
			out = append(out, rd)
		}
	}
	return out
}

// layerReading is one per-layer metric of a traced run.
type layerReading struct {
	name, unit string
	value      float64
	note       string
}

func medianOf(reps []tracedRep, pick func(tracedRep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, t := range reps {
		xs[i] = pick(t)
	}
	return median(xs)
}

// perLayer returns every per-layer metric of a traced run: the span budget,
// the counts read at the same boundaries, the derived ratios, the
// workload-specific viewer metrics, and the isolated block.
func (r *result) perLayer(micro map[string]microResult) []layerReading {
	o := &r.outcome
	var out []layerReading
	add := func(name, unit string, v float64, note string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // undefined on this workload
		}
		out = append(out, layerReading{name, unit, v, note})
	}
	tracedRun := medianOf(r.traced, func(t tracedRep) float64 { return float64(t.cost.run) })
	untracedRun := medianOf(r.traced, func(t tracedRep) float64 { return float64(t.untraced) })
	for l := layer(0); l < numLayers; l++ {
		l := l
		n := medianOf(r.traced, func(t tracedRep) float64 { return float64(t.layers[l].n) })
		self := medianOf(r.traced, func(t tracedRep) float64 { return float64(t.layers[l].self) })
		share := fmt.Sprintf("%.1f %% of the traced run", 100*self/tracedRun)
		add(layerNames[l]+".n", "count", n, "")
		add(layerNames[l]+".self_ns", "ns", self, share)
		add(layerNames[l]+".ns_per_op", "ns", self/n, "")
	}

	add("clock.events", "count", float64(o.events), "Virtual.FiredCount")
	add("netsim.pkts_sent", "count", float64(o.sent), "Network.Totals")
	add("netsim.pkts_delivered", "count", float64(o.delivered), "")
	add("netsim.pkts_dropped", "count", float64(o.dropped), "")
	add("netsim.bytes", "B", float64(o.bytes), "")
	add("server.admission_decisions", "count", float64(o.admissions), "Admission.Decisions")
	add("client.frames_presented", "count", float64(o.frames), "Player.Report")
	add("client.gaps", "count", float64(o.gaps), "")
	add("client.holds", "count", float64(o.holds), "")
	add("client.drops", "count", float64(o.drops), "")
	add("client.redirects", "count", float64(o.redirects), "lifecycle events")
	add("client.handoffs", "count", float64(o.handoffs), "")
	add("client.ctrl_timeouts", "count", float64(o.timeouts), "")

	// Process counters come from the untraced repetitions of the traced
	// run, so the interposers' own allocations stay out of them.
	proc := func(pick func(hostCost) float64) float64 { return median(column(r.timed, pick)) }
	mallocs := proc(func(c hostCost) float64 { return float64(c.mallocs) })
	allocB := proc(func(c hostCost) float64 { return float64(c.allocBytes) })
	add("proc.mallocs", "count", mallocs, "untraced repetitions")
	add("proc.alloc_bytes", "B", allocB, "")
	add("proc.gc_cycles", "count", proc(func(c hostCost) float64 { return float64(c.gcCycles) }), "")
	add("proc.gc_pause_ns", "ns", proc(func(c hostCost) float64 { return float64(c.gcPause) }), "")

	frames := float64(o.frames)
	add("ns_per_frame", "ns", untracedRun/frames, "untraced run_s ÷ frames presented")
	add("events_per_frame", "ratio", float64(o.events)/frames, "")
	add("pkts_per_frame", "ratio", float64(o.sent)/frames, "")
	add("allocs_per_frame", "ratio", mallocs/frames, "")
	add("alloc_b_per_frame", "B", allocB/frames, "")
	add("viewer_s_per_s", "1/s", o.viewerSeconds/(untracedRun/float64(time.Second)), "simulated viewer-seconds per host second")
	ctrl := medianOf(r.traced, func(t tracedRep) float64 { return float64(t.layers[lServerCtrl].n) })
	add("ctrl_reqs_per_s", "1/s", ctrl/(untracedRun/float64(time.Second)), "server.ctrl.n ÷ untraced run_s")
	add("trace.overhead_pct", "%", 100*(tracedRun/untracedRun-1), "traced ÷ untraced run_s − 1")
	add("trace.unaccounted_pct", "%", medianOf(r.traced, func(t tracedRep) float64 {
		return 100 * math.Abs(float64(t.cost.run-t.accounted)) / float64(t.cost.run)
	}), "|run wall − Σ self| ÷ run wall")

	// Viewer metrics only some workloads define; 0 where undefined.
	have := map[string]reading{}
	for _, rd := range r.endToEnd() {
		have[rd.name] = rd
	}
	for _, d := range endToEndDefs {
		if !d.everywhere {
			add(d.name, d.unit, have[d.name].value, have[d.name].note)
		}
	}
	for _, name := range microNames {
		add(name, "ns", micro[name].nsOp, micro[name].notes)
	}
	return out
}

func (r *result) header(w io.Writer) {
	wl := r.wl
	fmt.Fprintf(w, "workload %s  seed %d  — %d viewers arriving Poisson at %g/s, %d server(s)\n",
		wl.name, r.seed, wl.viewers, wl.rate, wl.servers)
	fmt.Fprintf(w, "repetitions: 1 check + %d timed", len(r.timed))
	if len(r.traced) > 0 {
		fmt.Fprintf(w, " + %d traced", len(r.traced))
	}
	fmt.Fprintf(w, "; sim_digest %016x identical in all of them\n", r.outcome.digest)
	if r.playoutDigests > 1 {
		fmt.Fprintf(w, "playout_digest: %d distinct values — per-stream plays/gaps and delivery order are not reproduced (see README, \"What does not repeat\")\n", r.playoutDigests)
	} else {
		fmt.Fprintf(w, "playout_digest: identical in all repetitions\n")
	}
	fmt.Fprintf(w, "ops %d  ops_failed %d\n", r.outcome.ops, r.outcome.failed)
	fmt.Fprint(w, "run_s of each timed repetition:")
	for _, c := range r.timed {
		fmt.Fprintf(w, " %.3f", c.run.Seconds())
	}
	fmt.Fprint(w, "\n\n")
}

func (r *result) printEndToEnd(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tvalue\tunit\ttime base\tbound\thow")
	for _, rd := range r.endToEnd() {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\n", rd.name, rd.value, rd.unit, rd.base, boundText(rd.metricDef), rd.note)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func boundText(d metricDef) string {
	s := fmt.Sprintf("+%g %%", 100*d.bound)
	if d.slack > 0 {
		s += fmt.Sprintf(" or +%g", d.slack)
	}
	return s
}

func printPerLayer(w io.Writer, rows []layerReading) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer metric\tvalue\tunit\thow")
	for _, rd := range rows {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", rd.name, rd.value, rd.unit, rd.note)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// resultLine is the last line of a run's output, in the driver's contract.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the contract's result line: the gated end-to-end metrics
// untraced, every per-layer metric traced.
func (r *result) jsonLine(layers []layerReading) string {
	line := resultLine{Correct: true, Attempted: r.outcome.ops, Failed: r.outcome.failed, Metrics: map[string]metricJSON{}}
	if layers != nil {
		for _, rd := range layers {
			line.Metrics[rd.name] = metricJSON{rd.value, rd.unit}
		}
	} else {
		for _, rd := range r.endToEnd() {
			if rd.everywhere {
				line.Metrics[rd.name] = metricJSON{rd.value, rd.unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and perLayer zeroes them
	}
	return strings.TrimSpace(string(b))
}

// passReport is what -agree reads from a child process: every end-to-end
// reading of one run, not only the ones the driver's result line carries.
type passReport struct {
	Digest   string        `json:"sim_digest"`
	Ops      int           `json:"ops"`
	Failed   int           `json:"ops_failed"`
	Readings []passReading `json:"readings"`
}

type passReading struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Spread float64 `json:"spread"`
}

func (r *result) readingsLine() string {
	rep := passReport{Digest: fmt.Sprintf("%016x", r.outcome.digest), Ops: r.outcome.ops, Failed: r.outcome.failed}
	for _, rd := range r.endToEnd() {
		rep.Readings = append(rep.Readings, passReading{rd.name, rd.value, rd.spread})
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err) // a NaN: some metric had no samples
	}
	return string(b)
}
