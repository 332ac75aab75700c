package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Recorder is the flight recorder: a bounded log of the most recent events
// and frame/control samples of one scope, dumped automatically when an
// anomaly fires. Where the main trace answers "what has this session done
// lately", a flight dump answers "what exactly surrounded the failover at
// tick 4.2s" — the causal window a chaos post-mortem needs, frozen at the
// moment it mattered.
//
// Anomalies: a failover, a liveness loss (EvLiveness with value 0), a
// deadline-miss burst (8 misses inside 2 s) or a grade drop
// (degrade/cutoff grading action). The dump is deferred by FlushDelay so
// the aftermath (recovery probes, the session resuming at a replica) lands
// inside the window; a second anomaly while one is pending extends the
// delay instead of dumping twice. For 30 s after a dump no anomaly
// re-triggers, so one incident produces one file.
type Recorder struct {
	clk  clock.Clock
	opts RecorderOptions
	win  *Trace // the last recorderCap events; guarded by its own lock

	mu       sync.Mutex
	missAt   [burstN]time.Time // the last burstN deadline misses, oldest first
	misses   int
	pending  string // anomaly reason awaiting flush ("" = none)
	flush    *clock.Timer
	lastDump time.Time
	dumps    int
	lastPath string
	lastErr  error
}

// The recorder's fixed shape: the window's size, the deadline-miss burst that
// counts as an anomaly (burstN misses inside burstWindow), and how long a
// dump suppresses new triggers so one incident produces one file.
const (
	recorderCap = 512
	burstN      = 8
	burstWindow = 2 * time.Second
	cooldown    = 30 * time.Second
)

// RecorderOptions tunes a flight recorder. Zero values take defaults.
type RecorderOptions struct {
	// Dir, when set, receives one flight-NNN.jsonl file per dump: a header
	// line naming the anomaly, then the window's events in the trace JSONL
	// schema.
	Dir string
	// Sink, when set, observes each dump in-process and may keep its events.
	Sink func(anomaly string, events []Event)
	// FlushDelay is how long after the trigger the window is frozen
	// (default 2s); anomalies arriving meanwhile extend it.
	FlushDelay time.Duration
}

// NewRecorder creates a flight recorder on clk. Scopes normally build one
// via Scope.EnableFlightRecorder, which also tees every Emit into it.
func NewRecorder(clk clock.Clock, opts RecorderOptions) *Recorder {
	if opts.FlushDelay <= 0 {
		opts.FlushDelay = 2 * time.Second
	}
	return &Recorder{
		clk:  clk,
		opts: opts,
		win:  NewTrace(recorderCap),
	}
}

// anomalyOf classifies an event as a dump trigger ("" = none). Deadline
// misses are handled separately: one miss is routine, a burst is not.
func anomalyOf(ev Event) string {
	switch ev.Kind {
	case EvFailover:
		return "failover"
	case EvLiveness:
		if ev.Value == 0 {
			return "liveness-loss"
		}
	case EvGradeChange:
		if strings.HasPrefix(ev.Note, "degrade") || strings.HasPrefix(ev.Note, "cutoff") {
			return "grade-drop"
		}
	}
	return ""
}

// Record appends one event to the window and fires the anomaly logic. It does
// not allocate, so span sampling can tee into an armed recorder from the
// zero-alloc data plane.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	r.win.Record(ev)
	reason := anomalyOf(ev)
	if ev.Kind == EvDeadlineMiss && r.burstLocked(ev.At) {
		reason = "deadline-miss-burst"
	}
	if reason != "" {
		r.triggerLocked(reason, ev.At)
	}
	r.mu.Unlock()
}

// burstLocked registers a deadline miss and reports whether it completes a
// burst: this miss plus the burstN-1 before it all inside burstWindow.
func (r *Recorder) burstLocked(at time.Time) bool {
	copy(r.missAt[:], r.missAt[1:])
	r.missAt[burstN-1] = at
	r.misses++
	return r.misses >= burstN && at.Sub(r.missAt[0]) <= burstWindow
}

func (r *Recorder) triggerLocked(reason string, at time.Time) {
	if !r.lastDump.IsZero() && at.Sub(r.lastDump) < cooldown {
		return
	}
	// Mark the trigger inside the window itself, then freeze (or keep
	// extending) the tail.
	r.win.Record(Event{At: at, Kind: EvAnomaly, Note: reason})
	if r.pending != "" {
		r.flush.Reset(r.opts.FlushDelay)
		return
	}
	r.pending = reason
	if r.flush == nil {
		r.flush = r.clk.AfterFunc(r.opts.FlushDelay, r.doFlush)
	} else {
		r.flush.Reset(r.opts.FlushDelay)
	}
}

func (r *Recorder) doFlush() {
	r.mu.Lock()
	reason := r.pending
	r.pending = ""
	if reason == "" {
		r.mu.Unlock()
		return
	}
	evs := r.win.Events()
	now := r.clk.Now()
	r.lastDump = now
	r.dumps++
	seq := r.dumps
	sink, dir := r.opts.Sink, r.opts.Dir
	r.mu.Unlock()

	if sink != nil {
		sink(reason, evs)
	}
	if dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("flight-%03d.jsonl", seq))
		err := writeDump(path, reason, now, evs)
		r.mu.Lock()
		if err != nil {
			r.lastErr = err
		} else {
			r.lastPath = path
		}
		r.mu.Unlock()
	}
}

// writeDump writes one flight file: a header line naming the anomaly, then
// the window in the trace JSONL schema.
func writeDump(path, reason string, at time.Time, evs []Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "{\"anomaly\":%q,\"at\":%q,\"events\":%d}\n",
		reason, at.UTC().Format(time.RFC3339Nano), len(evs)); err != nil {
		return err
	}
	return writeEventsJSONL(f, evs)
}

// Dumps returns how many dumps have been written.
func (r *Recorder) Dumps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}

// LastDumpPath returns the path of the most recent dump file ("" when the
// recorder has no Dir or nothing dumped yet).
func (r *Recorder) LastDumpPath() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastPath
}

// LastErr returns the most recent dump-write error (nil when none).
func (r *Recorder) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}
