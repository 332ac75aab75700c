// Package obs is the session telemetry layer: a metric registry of named
// instruments (counters, gauges, high-water marks, duration histograms), a
// bounded structured trace of typed events, and the Scope handle that wires
// both through the client, server, buffer, playout, QoS and transport
// layers.
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
	"sync"
	"time"
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
	// enters the main trace ring.
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

func (k EventKind) String() string {
	switch k {
	case EvSessionStart:
		return "session-start"
	case EvSessionEnd:
		return "session-end"
	case EvBufferWatermark:
		return "buffer-watermark"
	case EvFrameDrop:
		return "frame-drop"
	case EvFrameDuplicate:
		return "frame-duplicate"
	case EvSkewAction:
		return "skew-action"
	case EvGradeChange:
		return "grade-change"
	case EvDeadlineMiss:
		return "deadline-miss"
	case EvAdmissionDecision:
		return "admission-decision"
	case EvReconnect:
		return "reconnect"
	case EvCtrlRetry:
		return "ctrl-retry"
	case EvCtrlTimeout:
		return "ctrl-timeout"
	case EvCtrlDedup:
		return "ctrl-dedup"
	case EvLiveness:
		return "liveness"
	case EvFailover:
		return "failover"
	case EvSessionResume:
		return "session-resume"
	case EvSendFailure:
		return "send-failure"
	case EvHeartbeatMiss:
		return "heartbeat-miss"
	case EvFrameSample:
		return "frame-sample"
	case EvCtrlSpan:
		return "ctrl-span"
	case EvAnomaly:
		return "anomaly"
	case EvRedirect:
		return "redirect"
	case EvHandoff:
		return "handoff"
	case EvCtrlDecodeError:
		return "ctrl-decode-error"
	case EvIllegalInput:
		return "illegal-input"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
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

// DefaultTraceCap bounds a Scope's trace ring.
const DefaultTraceCap = 4096

// Trace is a bounded, concurrency-safe ring of events. When full, new
// events overwrite the oldest (counted in Dropped) — recent history is what
// debugging a live glitch needs.
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped int64

	// dumpMu serializes the dump paths (Count, WriteJSONL) so they can share
	// one reusable snapshot buffer instead of allocating per call. It is
	// never held together with mu for longer than one EventsAppend.
	dumpMu  sync.Mutex
	dumpBuf []Event
}

// NewTrace creates a trace holding at most capacity events.
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends one event, evicting the oldest when the ring is full.
func (t *Trace) Record(ev Event) {
	t.mu.Lock()
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Dropped returns how many events were evicted to make room.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// EventsAppend appends the retained events, oldest first, to buf (which is
// truncated first) and returns the extended slice. With a warm buffer of
// sufficient capacity the call does not allocate, so periodic dumps can
// snapshot the ring for free.
func (t *Trace) EventsAppend(buf []Event) []Event {
	buf = buf[:0]
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append(buf, t.buf[:t.next]...)
	}
	buf = append(buf, t.buf[t.next:]...)
	return append(buf, t.buf[:t.next]...)
}

// jsonEvent is the JSONL schema of one trace line.
type jsonEvent struct {
	At     string `json:"at"` // RFC3339Nano, clock time
	Kind   string `json:"kind"`
	Stream string `json:"stream,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Note   string `json:"note,omitempty"`
}

// WriteJSONL writes the retained events as JSON Lines, one event per line,
// oldest first. The ring snapshot reuses a buffer across calls.
func (t *Trace) WriteJSONL(w io.Writer) error {
	t.dumpMu.Lock()
	defer t.dumpMu.Unlock()
	t.dumpBuf = t.EventsAppend(t.dumpBuf)
	return writeEventsJSONL(w, t.dumpBuf)
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
