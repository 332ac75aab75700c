package obs

import (
	"time"

	"repro/internal/stats"
)

// Latency spans decompose the emit→playout path into per-hop histograms.
// One frame in every N (DefaultSpanSampleEvery) is measured; both ends of
// the wire derive the sampling decision from the frame index the media
// header already carries (and the RTP timestamp/seq identity it maps to),
// so the server and the client measure the very same frames with no extra
// wire bytes and no coordination. Every hop is a plain histogram Observe on
// a pre-resolved instrument — allocation-free, so sampling can stay on in
// the zero-alloc data plane.
//
// The hops:
//
//	emit→wire            server: emit start to last fragment handed to the
//	                     transport (wall time — an in-process service time)
//	wire→reassembled     client: netsim send stamp of the frame's first
//	                     fragment to reassembly completion (clock time)
//	reassembled→deadline client: slack between arrival and the playout
//	                     deadline at play time (clock time; 0 = just-in-time)
const DefaultSpanSampleEvery = 8

// Registry names of the frame-span histograms.
const (
	SpanEmitToWire        = "span_emit_to_wire"
	SpanWireToReassembled = "span_wire_to_reassembled"
	SpanDeadlineSlack     = "span_deadline_slack"
)

// Flight-recorder hop tags of EvFrameSample events (values are µs).
const (
	HopEmitToWire        = "emit_to_wire_us"
	HopWireToReassembled = "wire_to_reassembled_us"
	HopDeadlineSlack     = "deadline_slack_us"
)

// FrameSpans is a scope's frame-span recorder. Components resolve it once
// at construction (like counters) and call Sampled/Record* on the hot path.
// The shared no-op instance a nil scope hands out never samples.
type FrameSpans struct {
	scope *Scope // nil on the shared no-op
	hEmit *stats.DurationHistogram
	hWire *stats.DurationHistogram
	hSlak *stats.DurationHistogram
}

var noopSpans = &FrameSpans{hEmit: noopHist, hWire: noopHist, hSlak: noopHist}

func newFrameSpans(s *Scope) *FrameSpans {
	return &FrameSpans{
		scope: s,
		hEmit: s.reg.HistogramBounds(SpanEmitToWire, stats.MicroLatencyBounds()...),
		hWire: s.reg.Histogram(SpanWireToReassembled),
		hSlak: s.reg.Histogram(SpanDeadlineSlack),
	}
}

// Sampled reports whether the frame with this index belongs to the 1-in-N
// sample. Every hop keys on the same index, so a sampled frame is sampled
// end to end. The shared no-op never samples.
func (f *FrameSpans) Sampled(idx uint32) bool {
	return f.scope != nil && idx%DefaultSpanSampleEvery == 0
}

// RecordEmit records the emit→wire service time of a sampled frame.
func (f *FrameSpans) RecordEmit(stream string, d time.Duration) {
	f.hEmit.Observe(d)
	f.tee(stream, d, HopEmitToWire)
}

// RecordDelivery records the wire→reassembled latency of a sampled frame.
func (f *FrameSpans) RecordDelivery(stream string, d time.Duration) {
	f.hWire.Observe(d)
	f.tee(stream, d, HopWireToReassembled)
}

// RecordSlack records how early a sampled frame was reassembled relative to
// its playout deadline (clamped at zero: a late frame shows up in the
// playout lateness histogram instead).
func (f *FrameSpans) RecordSlack(stream string, d time.Duration) {
	f.hSlak.Observe(d)
	f.tee(stream, d, HopDeadlineSlack)
}

// tee forwards the sample into the scope's flight recorder (when one is
// armed) so an anomaly dump carries the latency context around the event
// window. No allocation: the Event is built from existing strings.
func (f *FrameSpans) tee(stream string, d time.Duration, hop string) {
	f.scope.Sample(EvFrameSample, stream, d.Microseconds(), hop)
}
