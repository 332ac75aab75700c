package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestTraceRingAndDropped(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.Record(Event{Kind: EvFrameDrop, Value: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.Value != want || ev.Kind != EvFrameDrop {
			t.Fatalf("event %d = %+v, want a frame drop of value %d (oldest-first order)", i, ev, want)
		}
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Event{Kind: EvSkewAction})
				tr.Events()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 128 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.Dropped() + int64(tr.Len()); got != 8*500 {
		t.Fatalf("retained+dropped = %d, want %d", got, 8*500)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	s.Emit(EvSessionStart, "laptop", 1, "connected")
	clk.RunFor(40 * time.Millisecond)
	s.Emit(EvBufferWatermark, "vi/c", 3, "underflow")
	clk.RunFor(time.Second)
	s.Emit(EvGradeChange, "vi/c", 2, "degrade: loss")

	var buf bytes.Buffer
	if err := s.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			At     string `json:"at"`
			Kind   string `json:"kind"`
			Stream string `json:"stream"`
			Value  int64  `json:"value"`
			Note   string `json:"note"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		at, err := time.Parse(time.RFC3339Nano, line.At)
		if err != nil {
			t.Fatalf("bad timestamp %q: %v", line.At, err)
		}
		if at.Before(prev) {
			t.Fatalf("timestamps not monotone: %v before %v", at, prev)
		}
		prev = at
		kinds = append(kinds, line.Kind)
	}
	want := []string{"session-start", "buffer-watermark", "grade-change"}
	if len(kinds) != len(want) {
		t.Fatalf("lines = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if !prev.Equal(clock.Epoch.Add(40*time.Millisecond + time.Second)) {
		t.Fatalf("last timestamp %v not on the virtual clock", prev)
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not stable across lookups")
	}
	r.Counter("frames").Add(5)
	r.Gauge("sessions").Set(2)
	r.HighWater("queue").Observe(9)
	r.Histogram("lat").Observe(20 * time.Millisecond)

	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot size = %d, want 5", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q > %q", snap[i-1].Name, snap[i].Name)
		}
	}
	byName := map[string]MetricPoint{}
	for _, p := range snap {
		byName[p.Name] = p
	}
	if p := byName["frames"]; p.Kind != "counter" || p.Value != 5 {
		t.Fatalf("frames = %+v", p)
	}
	if p := byName["sessions"]; p.Kind != "gauge" || p.Value != 2 {
		t.Fatalf("sessions = %+v", p)
	}
	if p := byName["queue"]; p.Kind != "highwater" || p.Value != 9 {
		t.Fatalf("queue = %+v", p)
	}
	if p := byName["lat"]; p.Kind != "histogram" || p.Count != 1 || p.Max != 20 {
		t.Fatalf("lat = %+v", p)
	}

	tb := r.Table().String()
	for _, want := range []string{"frames", "sessions", "queue", "lat", "p95"} {
		if !strings.Contains(tb, want) {
			t.Fatalf("table missing %q:\n%s", want, tb)
		}
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Inc()
				r.Histogram("h").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d (instrument identity not stable under races?)", got)
	}
	if got := r.Histogram("h").N(); got != 8000 {
		t.Fatalf("histogram n = %d", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("buffer_pushed", "stream", "vi/c"); got != "buffer_pushed{stream=vi/c}" {
		t.Fatalf("label = %q", got)
	}
	if got := Label("adm", "class", "premium", "verdict", "admitted"); got != "adm{class=premium,verdict=admitted}" {
		t.Fatalf("label = %q", got)
	}
	if got := Label("plain"); got != "plain" {
		t.Fatalf("label = %q", got)
	}
}

func TestNilScopeSafeAndAllocationFree(t *testing.T) {
	var s *Scope
	// Every method must be callable on nil.
	s.Emit(EvFrameDrop, "x", 1, "n")
	s.Counter("c").Inc()
	s.Gauge("g").Set(3)
	s.HighWater("h").Observe(4)
	s.Histogram("d").Observe(time.Millisecond)
	if s.Enabled() || s.Registry() != nil || s.Trace() != nil {
		t.Fatal("nil scope should report disabled")
	}
	if s.Dashboard(5) == "" {
		t.Fatal("nil dashboard empty")
	}

	c := s.Counter("hot")
	h := s.Histogram("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		s.Emit(EvFrameDrop, "stream", 1, "note")
		c.Inc()
		h.Observe(time.Millisecond)
		s.Counter("hot").Add(2)
	})
	if allocs != 0 {
		t.Fatalf("nil-scope instrumentation allocates: %.1f allocs/op", allocs)
	}
}

func TestDashboard(t *testing.T) {
	s := NewScope(clock.NewSim())
	s.Counter("frames").Add(3)
	s.Emit(EvSkewAction, "au/n", 2, "drop to catch up")
	out := s.Dashboard(10)
	for _, want := range []string{"frames", "skew-action", "au/n", "drop to catch up"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkObsOverhead(b *testing.B) {
	// A nil scope is telemetry switched off: instrument lookups return
	// shared no-ops and Emit returns immediately. The instrumented hot
	// paths (buffer push, playout tick) rely on this costing nothing.
	var scope *Scope
	c := scope.Counter("hot_counter")
	h := scope.Histogram("hot_histogram")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(time.Duration(i))
		scope.Counter("hot_counter").Add(1)
		scope.Emit(EvBufferWatermark, "x", int64(i), "note")
	}
}
