package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Shared no-op instruments handed out by a nil Scope. They absorb updates
// into dead atomics that nothing reads, so a disabled instrument call is a
// single atomic add with no allocation and no branch beyond the nil check.
var (
	noopCounter = new(stats.Counter)
	noopGauge   = new(stats.Gauge)
	noopHigh    = new(stats.HighWater)
	noopHist    = stats.NewDurationHistogram()
)

// Scope bundles a clock, a metric registry and an event trace into the one
// handle components take. All methods are safe on a nil receiver: a nil
// *Scope means telemetry is off, instrument getters return shared no-op
// instruments, and Emit returns immediately — callers never branch.
type Scope struct {
	clk   clock.Clock
	reg   *Registry
	tr    *Trace
	spans *FrameSpans
	rec   atomic.Pointer[Recorder]
	ts    atomic.Pointer[TimeSeries]
}

// NewScope creates a scope stamping events with clk's time and a trace
// of DefaultTraceCap events, which takes no space before the first Emit.
func NewScope(clk clock.Clock) *Scope {
	return NewScopeCap(clk, DefaultTraceCap)
}

// NewScopeCap is NewScope with an explicit trace capacity.
func NewScopeCap(clk clock.Clock, traceCap int) *Scope {
	s := &Scope{clk: clk, reg: NewRegistry(), tr: NewTrace(traceCap)}
	s.spans = newFrameSpans(s)
	return s
}

// Emit records one trace event stamped with the scope's clock, teeing it
// into the flight recorder when one is armed. No-op on a nil scope.
func (s *Scope) Emit(k EventKind, stream string, value int64, note string) {
	if s == nil {
		return
	}
	ev := Event{At: s.clk.Now(), Kind: k, Stream: stream, Value: value, Note: note}
	s.tr.Record(ev)
	if r := s.rec.Load(); r != nil {
		r.Record(ev)
	}
}

// Sample records an event into the flight recorder only — high-rate span
// samples that would flood the main trace. No-op on a nil scope or
// when no recorder is armed.
func (s *Scope) Sample(k EventKind, stream string, value int64, note string) {
	if s == nil {
		return
	}
	if r := s.rec.Load(); r != nil {
		r.Record(Event{At: s.clk.Now(), Kind: k, Stream: stream, Value: value, Note: note})
	}
}

// Counter returns the named registry counter (a shared no-op when the
// scope is nil).
func (s *Scope) Counter(name string) *stats.Counter {
	if s == nil {
		return noopCounter
	}
	return s.reg.Counter(name)
}

// Gauge returns the named registry gauge (a shared no-op when nil).
func (s *Scope) Gauge(name string) *stats.Gauge {
	if s == nil {
		return noopGauge
	}
	return s.reg.Gauge(name)
}

// HighWater returns the named registry high-water mark (a shared no-op
// when nil).
func (s *Scope) HighWater(name string) *stats.HighWater {
	if s == nil {
		return noopHigh
	}
	return s.reg.HighWater(name)
}

// Histogram returns the named registry duration histogram (a shared no-op
// when nil).
func (s *Scope) Histogram(name string) *stats.DurationHistogram {
	if s == nil {
		return noopHist
	}
	return s.reg.Histogram(name)
}

// HistogramBounds returns the named histogram, created with explicit bucket
// bounds on first use (a shared no-op when nil).
func (s *Scope) HistogramBounds(name string, bounds ...time.Duration) *stats.DurationHistogram {
	if s == nil {
		return noopHist
	}
	return s.reg.HistogramBounds(name, bounds...)
}

// FrameSpans returns the scope's frame-span recorder (a shared no-op that
// never samples when the scope is nil). Resolve once at construction, like
// counters.
func (s *Scope) FrameSpans() *FrameSpans {
	if s == nil {
		return noopSpans
	}
	return s.spans
}

// EnableFlightRecorder arms a flight recorder: from now on every Emit and
// span sample tees into its window, and anomalies dump per opts. Returns the
// recorder (nil on a nil scope).
func (s *Scope) EnableFlightRecorder(opts RecorderOptions) *Recorder {
	if s == nil {
		return nil
	}
	r := NewRecorder(s.clk, opts)
	s.rec.Store(r)
	return r
}

// EnableTimeSeries attaches a snapshot time series holding capN samples
// (DefaultSeriesCap when <= 0). The caller drives it — Sample() at phase
// boundaries or Start(interval) for periodic sampling — and the dashboard
// renders its trails. Returns the series (nil on a nil scope).
func (s *Scope) EnableTimeSeries(capN int) *TimeSeries {
	if s == nil {
		return nil
	}
	ts := NewTimeSeries(s.clk, s.reg, capN)
	s.ts.Store(ts)
	return ts
}

// Enabled reports whether the scope records anything. Use it to guard
// event construction that itself allocates (fmt.Sprintf notes).
func (s *Scope) Enabled() bool { return s != nil }

// Registry exposes the scope's registry (nil on a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Trace exposes the scope's trace (nil on a nil scope).
func (s *Scope) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Dashboard renders the metric table, the time-series trails (when a
// series is attached) and the last lastN trace events — the live
// introspection view, decoded in one pass over the trace.
func (s *Scope) Dashboard(lastN int) string {
	if s == nil {
		return "(telemetry off)\n"
	}
	var b strings.Builder
	b.WriteString(s.reg.Table().String())
	if ts := s.ts.Load(); ts != nil {
		if trails := ts.Table(8); trails != "" {
			b.WriteString("\n")
			b.WriteString(trails)
		}
	}
	evs := s.tr.last(lastN)
	if len(evs) == 0 {
		return b.String()
	}
	b.WriteString("\nrecent events:\n")
	for _, ev := range evs {
		fmt.Fprintf(&b, "  %s  %-18s %-12s %6d  %s\n",
			ev.At.UTC().Format("15:04:05.000"), ev.Kind, ev.Stream, ev.Value, ev.Note)
	}
	if d := s.tr.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  (%d older events evicted)\n", d)
	}
	return b.String()
}
