package stats

import (
	"sync"
	"testing"
	"time"
)

func TestGauge(t *testing.T) {
	cases := []struct {
		name string
		ops  func(g *Gauge)
		want int64
	}{
		{"zero value", func(g *Gauge) {}, 0},
		{"set", func(g *Gauge) { g.Set(42) }, 42},
		{"set overrides", func(g *Gauge) { g.Set(42); g.Set(7) }, 7},
		{"inc dec", func(g *Gauge) { g.Inc(); g.Inc(); g.Dec() }, 1},
		{"negative", func(g *Gauge) { g.Dec(); g.Dec() }, -2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var g Gauge
			c.ops(&g)
			if got := g.Value(); got != c.want {
				t.Fatalf("value = %d, want %d", got, c.want)
			}
		})
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Inc()
				g.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*per*2 {
		t.Fatalf("value = %d, want %d", got, workers*per*2)
	}
}

func TestDurationHistogramBuckets(t *testing.T) {
	cases := []struct {
		name   string
		bounds []time.Duration
		obs    []time.Duration
		bucket map[int]int64 // index → expected count
		n      int64
	}{
		{
			name:   "boundaries are inclusive upper bounds",
			bounds: []time.Duration{10 * time.Millisecond, 100 * time.Millisecond},
			obs:    []time.Duration{time.Millisecond, 10 * time.Millisecond, 11 * time.Millisecond, 100 * time.Millisecond, time.Second},
			bucket: map[int]int64{0: 2, 1: 2, 2: 1},
			n:      5,
		},
		{
			name:   "negative clamps to zero",
			bounds: []time.Duration{time.Millisecond},
			obs:    []time.Duration{-time.Second},
			bucket: map[int]int64{0: 1},
			n:      1,
		},
		{
			name:   "all overflow",
			bounds: []time.Duration{time.Millisecond},
			obs:    []time.Duration{time.Second, 2 * time.Second},
			bucket: map[int]int64{0: 0, 1: 2},
			n:      2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewDurationHistogram(c.bounds...)
			for _, d := range c.obs {
				h.Observe(d)
			}
			if h.N() != c.n {
				t.Fatalf("N = %d, want %d", h.N(), c.n)
			}
			for i, want := range c.bucket {
				if got := h.counts[i].Load(); got != want {
					t.Errorf("bucket %d = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestDurationHistogramQuantiles(t *testing.T) {
	h := NewDurationHistogram(
		10*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond, 100*time.Millisecond)
	// 100 observations spread 1..100ms: quantiles should land near q*100ms
	// (within one bucket's width).
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		q        float64
		lo, hi   time.Duration
		sanityGE time.Duration
	}{
		{0.50, 40 * time.Millisecond, 60 * time.Millisecond, 0},
		{0.95, 90 * time.Millisecond, 100 * time.Millisecond, 0},
		{0.99, 95 * time.Millisecond, 100 * time.Millisecond, 0},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("q%.0f = %v, want in [%v,%v]", c.q*100, got, c.lo, c.hi)
		}
	}
	if p50, p95, p99 := h.P50(), h.P95(), h.P99(); p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if m := h.Mean(); m < 45*time.Millisecond || m > 56*time.Millisecond {
		t.Fatalf("mean = %v", m)
	}
}

func TestDurationHistogramEmptyAndOverflowQuantile(t *testing.T) {
	h := NewDurationHistogram(time.Millisecond, 2*time.Millisecond)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(time.Hour) // overflow
	// Overflow observations report as the last bound; Max keeps the truth.
	if got := h.Quantile(0.99); got != 2*time.Millisecond {
		t.Fatalf("overflow quantile = %v", got)
	}
	if h.Max() != time.Hour {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestDurationHistogramConcurrent(t *testing.T) {
	h := NewDurationHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Fatalf("N = %d, want %d", h.N(), workers*per)
	}
	total := int64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total != workers*per {
		t.Fatalf("bucket sum = %d, want %d", total, workers*per)
	}
	if h.Max() != time.Duration(workers*per-1)*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestDurationHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-ascending bounds")
		}
	}()
	NewDurationHistogram(2*time.Millisecond, time.Millisecond)
}

func TestDurationHistogramMinTracking(t *testing.T) {
	h := NewDurationHistogram()
	if got := h.Min(); got != 0 {
		t.Fatalf("empty min = %v, want 0", got)
	}
	h.Observe(30 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(80 * time.Millisecond)
	if got := h.Min(); got != 5*time.Millisecond {
		t.Fatalf("min = %v, want 5ms", got)
	}
	if got := h.Max(); got != 80*time.Millisecond {
		t.Fatalf("max = %v, want 80ms", got)
	}
	// A genuine zero observation is distinguishable from "empty".
	h.Observe(0)
	if got := h.Min(); got != 0 {
		t.Fatalf("min after zero observation = %v, want 0", got)
	}
	if h.N() != 4 {
		t.Fatalf("n = %d", h.N())
	}
}

func TestMicroLatencyBoundsShape(t *testing.T) {
	bs := MicroLatencyBounds()
	if bs[0] != 10*time.Microsecond || bs[len(bs)-1] != 100*time.Millisecond {
		t.Fatalf("bounds span %v..%v", bs[0], bs[len(bs)-1])
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, bs)
		}
	}
	// A µs-scale service time must resolve below DefaultLatencyBounds' first
	// bucket (the reason the micro bounds exist).
	h := NewDurationHistogram(bs...)
	h.Observe(42 * time.Microsecond)
	if q := h.P50(); q > time.Millisecond {
		t.Fatalf("42µs observation quantizes to %v under micro bounds", q)
	}
}
