package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestFrameSpansSamplingDeterminism(t *testing.T) {
	s := NewScope(clock.NewSim())
	f := s.FrameSpans()
	// The sampling rule is a pure function of the frame index, so server and
	// client — holding separate FrameSpans — pick the very same frames.
	other := NewScope(clock.NewSim()).FrameSpans()
	for idx := uint32(0); idx < 64; idx++ {
		want := idx%DefaultSpanSampleEvery == 0
		if f.Sampled(idx) != want {
			t.Fatalf("Sampled(%d) = %v, want %v", idx, f.Sampled(idx), want)
		}
		if f.Sampled(idx) != other.Sampled(idx) {
			t.Fatalf("two scopes disagree on frame %d", idx)
		}
	}
}

func TestFrameSpansNilScopeNeverSamples(t *testing.T) {
	var s *Scope
	f := s.FrameSpans()
	for idx := uint32(0); idx < 32; idx++ {
		if f.Sampled(idx) {
			t.Fatalf("nil-scope spans sampled frame %d", idx)
		}
	}
	// Record* on the no-op must be safe (they hit the no-op histogram).
	f.RecordEmit("x", time.Millisecond)
	f.RecordDelivery("x", time.Millisecond)
	f.RecordSlack("x", time.Millisecond)
}

func TestFrameSpansRouteToHistograms(t *testing.T) {
	s := NewScope(clock.NewSim())
	f := s.FrameSpans()
	f.RecordEmit("v", 50*time.Microsecond)
	f.RecordEmit("v", 70*time.Microsecond)
	f.RecordDelivery("v", 30*time.Millisecond)
	f.RecordSlack("v", 200*time.Millisecond)
	if got := f.hEmit.N(); got != 2 {
		t.Fatalf("emit hop n = %d, want 2", got)
	}
	if got := f.hWire.N(); got != 1 {
		t.Fatalf("wire hop n = %d, want 1", got)
	}
	if got := f.hSlak.N(); got != 1 {
		t.Fatalf("slack hop n = %d, want 1", got)
	}
	// The hop instruments live in the registry under their span names.
	if s.Registry().Histogram(SpanEmitToWire) != f.hEmit {
		t.Fatal("emit hop not registered under its span name")
	}
}

// TestFrameSpansRecordAllocFree pins the tentpole's hot-path property: with
// sampling on AND a flight recorder armed, recording a span allocates
// nothing, so the zero-alloc data plane can keep it enabled by default.
func TestFrameSpansRecordAllocFree(t *testing.T) {
	s := NewScope(clock.NewSim())
	s.EnableFlightRecorder(RecorderOptions{})
	f := s.FrameSpans()
	allocs := testing.AllocsPerRun(1000, func() {
		if f.Sampled(0) {
			f.RecordEmit("v", 40*time.Microsecond)
			f.RecordDelivery("v", 20*time.Millisecond)
			f.RecordSlack("v", 100*time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("span recording allocates %.1f allocs/op with recorder armed", allocs)
	}
}

func TestFrameSpansConcurrentRecord(t *testing.T) {
	s := NewScope(clock.NewSim())
	s.EnableFlightRecorder(RecorderOptions{})
	f := s.FrameSpans()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.RecordEmit("v", time.Duration(i)*time.Microsecond)
				f.Sampled(uint32(i))
			}
		}()
	}
	wg.Wait()
	if got := f.hEmit.N(); got != 4000 {
		t.Fatalf("emit hop n = %d, want 4000", got)
	}
}
