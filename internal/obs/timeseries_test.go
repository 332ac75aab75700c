package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func seriesPoint(t *testing.T, s SeriesSample, name string) SeriesMetric {
	t.Helper()
	for _, p := range s.Points {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("sample has no metric %q", name)
	return SeriesMetric{}
}

func TestTimeSeriesCounterDeltasAndHistogramQuantiles(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	ts := s.EnableTimeSeries(0)
	c := s.Counter("frames")
	h := s.Histogram("lat")

	c.Add(10)
	h.Observe(20 * time.Millisecond)
	ts.Sample()
	c.Add(5)
	h.Observe(40 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	ts.Sample()

	samples := ts.Samples()
	if len(samples) != 2 {
		t.Fatalf("len = %d", len(samples))
	}
	// Counters report per-interval deltas, not running totals.
	if got := seriesPoint(t, samples[0], "frames").Value; got != 10 {
		t.Fatalf("first delta = %v, want 10", got)
	}
	if got := seriesPoint(t, samples[1], "frames").Value; got != 5 {
		t.Fatalf("second delta = %v, want 5", got)
	}
	// Histograms report the observation delta plus current quantiles.
	p := seriesPoint(t, samples[1], "lat")
	if p.Count != 2 {
		t.Fatalf("histogram count delta = %d, want 2", p.Count)
	}
	if p.P95 <= 0 {
		t.Fatalf("histogram p95 = %v", p.P95)
	}
}

func TestTimeSeriesRingBounded(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	ts := NewTimeSeries(clk, s.Registry(), 4)
	c := s.Counter("n")
	for i := 0; i < 10; i++ {
		c.Inc()
		ts.Sample()
	}
	if got := ts.Len(); got != 4 {
		t.Fatalf("ring len = %d, want 4", got)
	}
	// Deltas survive eviction: each retained sample saw exactly one Inc.
	for _, smp := range ts.Samples() {
		if got := seriesPoint(t, smp, "n").Value; got != 1 {
			t.Fatalf("delta = %v, want 1", got)
		}
	}
}

func TestTimeSeriesPeriodicOnVirtualClock(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	ts := s.EnableTimeSeries(0)
	if got := s.ts.Load(); got != ts {
		t.Fatal("the scope does not hold the enabled series")
	}
	ts.Start(10 * time.Second)
	clk.RunFor(35 * time.Second)
	if got := ts.Len(); got != 3 {
		t.Fatalf("len after 35s at 10s interval = %d, want 3", got)
	}
	ts.Stop()
	clk.RunFor(30 * time.Second)
	if got := ts.Len(); got != 3 {
		t.Fatalf("sampling continued after Stop: len = %d", got)
	}
}

func TestTimeSeriesJSONLRoundTrip(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	ts := s.EnableTimeSeries(0)
	s.Counter("x").Add(3)
	ts.Sample()
	clk.RunFor(time.Second)
	ts.Sample()
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	for _, ln := range lines {
		var back SeriesSample
		if err := json.Unmarshal([]byte(ln), &back); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if len(back.Points) == 0 {
			t.Fatal("sample round-tripped empty")
		}
	}
}

func TestTimeSeriesTableElidesFlatZero(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	ts := s.EnableTimeSeries(0)
	s.Counter("busy").Add(2)
	s.Counter("idle") // stays 0 across the window
	ts.Sample()
	s.Counter("busy").Add(1)
	ts.Sample()
	out := ts.Table(10)
	if !strings.Contains(out, "busy") || !strings.Contains(out, "+2 → +1") {
		t.Fatalf("table missing busy trail:\n%s", out)
	}
	if strings.Contains(out, "idle") {
		t.Fatalf("table shows all-zero metric:\n%s", out)
	}
}
