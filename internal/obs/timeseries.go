package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// DefaultSeriesCap bounds a time series ring (samples, not metrics).
const DefaultSeriesCap = 240

// TimeSeries periodically samples a registry into a bounded ring, turning
// end-state totals into trajectories: counter deltas per interval, gauge
// levels, histogram quantiles over time. Harnesses sample at phase
// boundaries; hermesd samples every -series-every. The ring is
// exported as JSONL and rendered as a trail section in the dashboard.
type TimeSeries struct {
	clk clock.Clock
	reg *Registry

	mu      sync.Mutex
	capN    int
	samples []SeriesSample
	prev    map[string]float64 // counter values / histogram counts at last sample
	stop    func()             // disarms periodic sampling; nil while disarmed
}

// SeriesSample is one sampling instant: every instrument's point in time.
type SeriesSample struct {
	At     time.Time      `json:"at"`
	Points []SeriesMetric `json:"points"`
}

// SeriesMetric is one instrument at one instant. Counters report the delta
// since the previous sample; gauges and high-water marks report their
// level; histograms report quantiles (milliseconds, like MetricPoint) plus
// the observation delta.
type SeriesMetric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`           // counter delta | gauge level | histogram mean ms
	Count int64   `json:"count,omitempty"` // histogram observations since last sample
	P50   float64 `json:"p50_ms,omitempty"`
	P95   float64 `json:"p95_ms,omitempty"`
	P99   float64 `json:"p99_ms,omitempty"`
	Max   float64 `json:"max_ms,omitempty"`
}

// NewTimeSeries creates a series over reg holding at most capN samples
// (DefaultSeriesCap when capN <= 0). Scopes normally build one via
// Scope.EnableTimeSeries.
func NewTimeSeries(clk clock.Clock, reg *Registry, capN int) *TimeSeries {
	if capN <= 0 {
		capN = DefaultSeriesCap
	}
	return &TimeSeries{clk: clk, reg: reg, capN: capN, prev: map[string]float64{}}
}

// Sample takes one snapshot now. Safe from any goroutine; harnesses call it
// at phase boundaries so the sampling cost never lands inside a measured
// window.
func (ts *TimeSeries) Sample() {
	snap := ts.reg.Snapshot()
	at := ts.clk.Now()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	pts := make([]SeriesMetric, 0, len(snap))
	for _, p := range snap {
		m := SeriesMetric{Name: p.Name, Kind: p.Kind, Value: p.Value}
		switch p.Kind {
		case "counter":
			m.Value = p.Value - ts.prev["c:"+p.Name]
			ts.prev["c:"+p.Name] = p.Value
		case "histogram":
			m.Count = p.Count - int64(ts.prev["h:"+p.Name])
			ts.prev["h:"+p.Name] = float64(p.Count)
			m.P50, m.P95, m.P99, m.Max = p.P50, p.P95, p.P99, p.Max
		}
		pts = append(pts, m)
	}
	if len(ts.samples) == ts.capN {
		copy(ts.samples, ts.samples[1:])
		ts.samples = ts.samples[:ts.capN-1]
	}
	ts.samples = append(ts.samples, SeriesSample{At: at, Points: pts})
}

// Start arms periodic sampling every interval (idempotent; Stop disarms).
func (ts *TimeSeries) Start(interval time.Duration) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.stop == nil && interval > 0 {
		ts.stop = clock.Every(ts.clk, interval, ts.Sample)
	}
}

// Stop disarms periodic sampling (manual Sample still works). It waits for
// a sample in flight, which takes ts.mu, so it disarms unlocked.
func (ts *TimeSeries) Stop() {
	ts.mu.Lock()
	stop := ts.stop
	ts.stop = nil
	ts.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Len returns how many samples the ring holds.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.samples)
}

// Samples returns a copy of the ring, oldest first.
func (ts *TimeSeries) Samples() []SeriesSample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]SeriesSample, len(ts.samples))
	copy(out, ts.samples)
	return out
}

// WriteJSONL writes one JSON line per sample, oldest first.
func (ts *TimeSeries) WriteJSONL(w io.Writer) error {
	for _, s := range ts.Samples() {
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("obs: marshal series sample: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the last lastK samples as per-metric trails for the
// dashboard: counters as +delta chains, gauges as levels, histograms as p95
// chains — each cell with its unit. Metrics flat at zero across the whole
// window are elided.
func (ts *TimeSeries) Table(lastK int) string {
	samples := ts.Samples()
	if len(samples) == 0 {
		return ""
	}
	if lastK > 0 && len(samples) > lastK {
		samples = samples[len(samples)-lastK:]
	}
	// Column per sample, row per metric named in the newest sample.
	last := samples[len(samples)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "time series (%d samples, newest right):\n", len(samples))
	for _, m := range last.Points {
		cells := make([]string, 0, len(samples))
		allZero := true
		for _, s := range samples {
			var cell string
			for _, p := range s.Points {
				if p.Name != m.Name {
					continue
				}
				switch p.Kind {
				case "counter":
					cell = fmt.Sprintf("+%.0f", p.Value)
					allZero = allZero && p.Value == 0
				case "histogram":
					cell = "p95=" + FmtMS(p.P95)
					allZero = allZero && p.Count == 0 && p.P95 == 0
				default:
					cell = fmt.Sprintf("%.0f", p.Value)
					allZero = allZero && p.Value == 0
				}
				break
			}
			if cell == "" {
				cell = "·"
			}
			cells = append(cells, cell)
		}
		if allZero {
			continue
		}
		fmt.Fprintf(&b, "  %-44s %s\n", m.Name, strings.Join(cells, " → "))
	}
	return b.String()
}
