package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05}}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Median = %v, want 50.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestSampleInterleavedAddAndQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(0)
	if s.Percentile(0) != 0 {
		t.Fatal("min wrong")
	}
	s.Add(-5) // after a query; must re-sort
	if s.Percentile(0) != -5 || s.Max() != 10 {
		t.Fatalf("Min/Max = %v/%v after re-add", s.Percentile(0), s.Max())
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(xs []float64, p float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		p = math.Mod(math.Abs(p), 101)
		var s Sample
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			s.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		got := s.Percentile(p)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesTimeWeightedMean(t *testing.T) {
	var s Series
	s.Add(0, 4)
	s.Add(10*time.Second, 2)
	// 10s at 4, then 10s at 2 → mean 3 over 20s.
	if got := s.TimeWeightedMean(20 * time.Second); math.Abs(got-3) > 1e-12 {
		t.Fatalf("TWM = %v, want 3", got)
	}
	// Horizon inside the first segment.
	if got := s.TimeWeightedMean(5 * time.Second); math.Abs(got-4) > 1e-12 {
		t.Fatalf("TWM(5s) = %v, want 4", got)
	}
}

func TestSeriesTimeWeightedMeanLateStart(t *testing.T) {
	var s Series
	s.Add(5*time.Second, 10)
	// Value before the first point counts as the first value.
	if got := s.TimeWeightedMean(10 * time.Second); math.Abs(got-10) > 1e-12 {
		t.Fatalf("TWM = %v, want 10", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value", "ms")
	tb.AddRow("alpha", 3.14159, 1500*time.Microsecond)
	tb.AddRow("b", 2, time.Second)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatalf("float not formatted: %q", out)
	}
	if !strings.Contains(out, "1.5ms") || !strings.Contains(out, "1000.0ms") {
		t.Fatalf("durations not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds correlated: %d/100 collisions", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(11)
	var s Sample
	for i := 0; i < 50000; i++ {
		s.Add(r.Uniform(2, 4))
	}
	if math.Abs(s.Mean()-3) > 0.02 {
		t.Fatalf("uniform mean = %v, want ≈3", s.Mean())
	}
	if s.Percentile(0) < 2 || s.Max() >= 4 {
		t.Fatalf("uniform range [%v,%v] outside [2,4)", s.Percentile(0), s.Max())
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(99)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/100", same)
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestSampleAddDurationAndValues(t *testing.T) {
	var s Sample
	s.AddDuration(2500 * time.Microsecond)
	s.Add(1)
	if got := s.Mean(); math.Abs(got-1.75) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	vals := s.Values()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2.5 {
		t.Fatalf("values = %v", vals)
	}
	// Values returns a copy.
	vals[0] = 99
	if s.Percentile(0) == 99 {
		t.Fatal("Values aliases internal storage")
	}
}

func TestSeriesPointsAndN(t *testing.T) {
	var s Series
	s.Add(time.Second, 1)
	s.Add(2*time.Second, 2)
	pts := s.Points()
	if len(pts) != 2 || pts[1].V != 2 {
		t.Fatalf("points = %v", pts)
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(77)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d = %d, want ≈10000", i, c)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000+8*5 {
		t.Fatalf("counter = %d", got)
	}
}

func TestHighWaterConcurrent(t *testing.T) {
	var h HighWater
	if h.Value() != 0 {
		t.Fatal("zero value not 0")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(int64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if got := h.Value(); got != 7*1000+499 {
		t.Fatalf("high water = %d, want %d", got, 7*1000+499)
	}
	h.Observe(3) // lower values never regress the mark
	if h.Value() != 7*1000+499 {
		t.Fatal("mark regressed")
	}
}
