package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLabelReservedCharacterEscaping(t *testing.T) {
	cases := []struct{ name, got, want string }{
		{"space", Label("m", "user", "alice smith"), `m{user="alice smith"}`},
		{"comma", Label("m", "doc", "a,b"), `m{doc="a,b"}`},
		{"equals", Label("m", "q", "k=v"), `m{q="k=v"}`},
		{"braces", Label("m", "s", "{x}"), `m{s="{x}"}`},
		{"quote", Label("m", "s", `he said "hi"`), `m{s="he said \"hi\""}`},
		{"backslash", Label("m", "p", `a\b`), `m{p="a\\b"}`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, c.got, c.want)
		}
	}
	// Distinct label sets must never collide on the rendered name.
	a := Label("m", "k", `v",x=`)
	b := Label("m", "k", `v`, "x", "")
	if a == b {
		t.Fatalf("escaping collision: %q", a)
	}
}

// TestRegistryCrossKindRace hammers get-or-create for every instrument kind,
// including the same base name across kinds, under the race detector.
func TestRegistryCrossKindRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				name := Label("metric", "shard", fmt.Sprintf("%d", i%4))
				r.Counter(name).Inc()
				r.Gauge(name).Set(int64(w))
				r.HighWater(name).Observe(int64(i))
				r.Histogram(name).Observe(time.Microsecond * time.Duration(i+1))
				r.HistogramBounds(name+"_us", 10*time.Microsecond, 100*time.Microsecond).
					Observe(50 * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	for shard := 0; shard < 4; shard++ {
		name := Label("metric", "shard", fmt.Sprintf("%d", shard))
		if got := r.Counter(name).Value(); got != 800 {
			t.Fatalf("%s counter = %d (identity unstable under race)", name, got)
		}
		if got := r.Histogram(name).N(); got != 800 {
			t.Fatalf("%s histogram n = %d", name, got)
		}
	}
	// HistogramBounds get-or-create must converge on one instrument per
	// name: the first creation's bounds win, later calls get the same one.
	if got := r.Histogram(Label("metric", "shard", "0") + "_us").N(); got != 800 {
		t.Fatalf("bounded histogram n = %d, want 800", got)
	}
}

// BenchmarkTraceEvents prices decoding a full trace, the pass every dump
// makes.
func BenchmarkTraceEvents(b *testing.B) {
	tr := NewTrace(DefaultTraceCap)
	for i := 0; i < DefaultTraceCap*2; i++ {
		tr.Record(Event{Kind: EvFrameDrop, Stream: "v", Value: int64(i), Note: "bench"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Events()
	}
}

// BenchmarkTraceWriteJSONL prices a full trace dump (the -trace exit path and
// each flight-recorder flush go through the same JSONL writer).
func BenchmarkTraceWriteJSONL(b *testing.B) {
	tr := NewTrace(DefaultTraceCap)
	for i := 0; i < DefaultTraceCap; i++ {
		tr.Record(Event{At: time.Unix(int64(i), 0), Kind: EvFrameDrop,
			Stream: "vi/lecture", Value: int64(i), Note: "bench event"})
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
