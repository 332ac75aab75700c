// Package obs is the session telemetry layer: a metric registry of named
// instruments (counters, gauges, high-water marks, duration histograms), a
// bounded structured trace of typed events, and the Scope handle that wires
// both through the client, server, buffer, playout, QoS and transport
// layers.
//
// Every event store is one Log: a byte log in chunks, each of which decodes
// on its own, so a bounded log frees its oldest chunk and the strings in
// it. The trace and the flight recorder's window are bounded Logs under
// the Event schema; playout's display trace is an unbounded Log under its
// own.
//
// Everything is stamped with clock.Clock time, so the same instrumented
// code traces identically under the virtual simulation clock and the wall
// clock, and a nil *Scope disables all instrumentation at zero cost —
// components never need to know whether telemetry is on.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/clock"
)

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds. These cover the moments the paper's evaluation turns
// on: buffer occupancy vs watermarks, short-term skew recovery, long-term
// quality grading, admission decisions, and transport-level reconnects.
const (
	// EvSessionStart marks a session coming up (client connected / server
	// admitted).
	EvSessionStart EventKind = iota + 1
	// EvSessionEnd marks a session tearing down.
	EvSessionEnd
	// EvBufferWatermark marks a buffer crossing a watermark: an overflow
	// above the high mark or an underflow at playout time.
	EvBufferWatermark
	// EvFrameDrop marks frames discarded (stale arrival, watermark trim,
	// skew catch-up).
	EvFrameDrop
	// EvFrameDuplicate marks a frame replayed to conceal a gap.
	EvFrameDuplicate
	// EvSkewAction marks a short-term intermedia synchronization action.
	EvSkewAction
	// EvGradeChange marks a long-term quality grading action
	// (degrade/upgrade/cutoff/restore).
	EvGradeChange
	// EvDeadlineMiss marks a playout slot whose frame missed its deadline.
	EvDeadlineMiss
	// EvAdmissionDecision marks a connection-admission verdict.
	EvAdmissionDecision
	// EvReconnect marks a transport-level connection loss and redial.
	EvReconnect
	// EvCtrlRetry marks a control request retransmitted after a reply
	// timeout.
	EvCtrlRetry
	// EvCtrlTimeout marks a control request abandoned after its retries
	// (or its deadline) were exhausted.
	EvCtrlTimeout
	// EvCtrlDedup marks a duplicated control request absorbed by the
	// server's idempotent dedup cache (the cached reply is re-sent, the
	// handler does not run again).
	EvCtrlDedup
	// EvLiveness marks a session liveness transition: a peer declared dead
	// after missed heartbeats (value 0) or alive again (value 1).
	EvLiveness
	// EvFailover marks a client abandoning a dead server for a replica.
	EvFailover
	// EvSessionResume marks a suspended session resumed in place (the peer
	// returned within the grace window).
	EvSessionResume
	// EvSendFailure marks a control message the transport reported it could
	// not deliver (dropped reply, queue overflow, partitioned link).
	EvSendFailure
	// EvHeartbeatMiss marks one unanswered session heartbeat (value = the
	// consecutive miss count); LivenessMisses of these become an EvLiveness.
	EvHeartbeatMiss
	// EvFrameSample is a sampled frame-span measurement teed into the flight
	// recorder (value = hop latency in µs, note = the hop name). It never
	// enters the main trace.
	EvFrameSample
	// EvCtrlSpan is a completed control request span teed into the flight
	// recorder (value = round-trip µs including retransmits, note = message
	// type).
	EvCtrlSpan
	// EvAnomaly marks a flight-recorder trigger (note = the anomaly reason).
	EvAnomaly
	// EvRedirect marks a load-aware admission redirect: issued on the server
	// (note = the watermark reason), followed on the client (value = hop
	// number of the episode).
	EvRedirect
	// EvHandoff marks a cross-server handoff step: ticket issued/accepted on
	// the servers, initiated/completed on the client (value = latency in µs
	// on completion).
	EvHandoff
	// EvCtrlDecodeError marks a control message whose frame or body failed
	// to decode and was dropped (value = its request ID).
	EvCtrlDecodeError
	// EvIllegalInput marks a control input the Figure 4 state machine
	// refused for the session it arrived on (value = the protocol input).
	EvIllegalInput
)

// kindNames names each declared kind in the trace's JSONL.
var kindNames = [...]string{
	EvSessionStart: "session-start", EvSessionEnd: "session-end",
	EvBufferWatermark: "buffer-watermark", EvFrameDrop: "frame-drop",
	EvFrameDuplicate: "frame-duplicate", EvSkewAction: "skew-action",
	EvGradeChange: "grade-change", EvDeadlineMiss: "deadline-miss",
	EvAdmissionDecision: "admission-decision", EvReconnect: "reconnect",
	EvCtrlRetry: "ctrl-retry", EvCtrlTimeout: "ctrl-timeout", EvCtrlDedup: "ctrl-dedup",
	EvLiveness: "liveness", EvFailover: "failover", EvSessionResume: "session-resume",
	EvSendFailure: "send-failure", EvHeartbeatMiss: "heartbeat-miss",
	EvFrameSample: "frame-sample", EvCtrlSpan: "ctrl-span", EvAnomaly: "anomaly",
	EvRedirect: "redirect", EvHandoff: "handoff", EvCtrlDecodeError: "ctrl-decode-error",
	EvIllegalInput: "illegal-input",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one entry in the structured trace.
type Event struct {
	// At is the clock time of the event (virtual or wall, whichever clock
	// the Scope was built on).
	At time.Time
	// Kind classifies the event.
	Kind EventKind
	// Stream names the stream, session, user or host concerned ("" for
	// process-level events).
	Stream string
	// Value carries the event's magnitude (frames dropped, level reached,
	// granted rate, occupancy ms — kind-dependent).
	Value int64
	// Note carries human-readable detail.
	Note string
}

// DefaultTraceCap bounds a Scope's trace.
const DefaultTraceCap = 4096

// Trace is a bounded, concurrency-safe event log that shows the last
// capacity events; older ones are counted in Dropped, since recent history
// is what debugging a live glitch needs. Its schema maps an event onto a
// log entry as Stream, Kind, Note, At as nanoseconds from clock.Epoch in
// Num[3] and Value in Num[4]: a stream's events come in bursts, not at a
// pace, so At is predicted to repeat. At reads back in UTC, to the
// nanosecond for any instant within 292 years of the epoch, which every
// clock reading is; an earlier one, such as the zero time, saturates and
// reads back as the zero time.
type Trace struct {
	log Log
}

// NewTrace creates a trace showing at most capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = DefaultTraceCap
	}
	return &Trace{log: Log{limit: capacity}}
}

// Record appends one event.
func (t *Trace) Record(ev Event) {
	e := Entry{Stream: ev.Stream, Kind: int64(ev.Kind), Note: ev.Note}
	e.Num[3], e.Num[4] = int64(ev.At.Sub(clock.Epoch)), ev.Value
	t.log.Append(&e)
}

// Len returns the number of events shown.
func (t *Trace) Len() int { return t.log.Len() }

// Dropped returns how many events are no longer shown.
func (t *Trace) Dropped() int64 { return int64(t.log.dropped()) }

// Events returns the events shown, oldest first.
func (t *Trace) Events() []Event { return t.last(0) }

// last decodes the last n events shown, all of them when n <= 0, oldest
// first.
func (t *Trace) last(n int) []Event {
	entries := t.log.Entries(n)
	out := make([]Event, len(entries))
	for i, e := range entries {
		out[i] = Event{Kind: EventKind(e.Kind), Stream: e.Stream, Value: e.Num[4], Note: e.Note}
		if e.Num[3] != math.MinInt64 {
			out[i].At = clock.Epoch.Add(time.Duration(e.Num[3]))
		}
	}
	return out
}

// jsonEvent is the JSONL schema of one trace line.
type jsonEvent struct {
	At     string `json:"at"` // RFC3339Nano, clock time
	Kind   string `json:"kind"`
	Stream string `json:"stream,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Note   string `json:"note,omitempty"`
}

// WriteJSONL writes the events shown as JSON Lines, one event per line,
// oldest first.
func (t *Trace) WriteJSONL(w io.Writer) error {
	return writeEventsJSONL(w, t.Events())
}

// writeEventsJSONL renders events in the shared trace JSONL schema.
func writeEventsJSONL(w io.Writer, evs []Event) error {
	for _, ev := range evs {
		line, err := json.Marshal(jsonEvent{
			At:     ev.At.UTC().Format(time.RFC3339Nano),
			Kind:   ev.Kind.String(),
			Stream: ev.Stream,
			Value:  ev.Value,
			Note:   ev.Note,
		})
		if err != nil {
			return fmt.Errorf("obs: marshal event: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
