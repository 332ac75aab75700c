package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestRecorderLivenessLossTriggersDelayedDump(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	var gotAnomaly string
	var gotEvents int
	rec := s.EnableFlightRecorder(RecorderOptions{
		FlushDelay: 2 * time.Second,
		Sink: func(anomaly string, events []Event) {
			gotAnomaly = anomaly
			gotEvents = len(events)
		},
	})
	s.Emit(EvHeartbeatMiss, "srv", 3, "heartbeat unanswered")
	s.Emit(EvLiveness, "srv", 0, "peer lost")
	if !recPending(rec) {
		t.Fatal("liveness loss did not arm a pending dump")
	}
	// The window stays open through FlushDelay so the aftermath lands in it.
	clk.RunFor(time.Second)
	s.Emit(EvFailover, "srv", 0, "failing over to peer")
	if rec.Dumps() != 0 {
		t.Fatal("dumped before the flush delay elapsed")
	}
	clk.RunFor(3 * time.Second)
	if rec.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", rec.Dumps())
	}
	if gotAnomaly != "liveness-loss" {
		t.Fatalf("anomaly = %q", gotAnomaly)
	}
	// 2 trigger-adjacent events + failover + 2 anomaly markers (the failover
	// re-trigger extends the same window).
	if gotEvents < 4 {
		t.Fatalf("window holds %d events, want the full incident", gotEvents)
	}
}

func TestRecorderSecondAnomalyExtendsNotDoubles(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	rec := s.EnableFlightRecorder(RecorderOptions{FlushDelay: 2 * time.Second})
	s.Emit(EvLiveness, "a", 0, "lost")
	clk.RunFor(1500 * time.Millisecond)
	s.Emit(EvFailover, "a", 0, "failing over") // re-trigger at +1.5s
	clk.RunFor(1 * time.Second)                // original deadline (+2s) passes
	if rec.Dumps() != 0 {
		t.Fatal("flush not extended by the second anomaly")
	}
	clk.RunFor(2 * time.Second) // extended deadline (+3.5s) passes
	if rec.Dumps() != 1 {
		t.Fatalf("dumps = %d, want exactly 1 for one incident", rec.Dumps())
	}
}

func TestRecorderCooldownSuppressesRetrigger(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	rec := s.EnableFlightRecorder(RecorderOptions{FlushDelay: time.Second})
	s.Emit(EvLiveness, "a", 0, "lost")
	clk.RunFor(2 * time.Second)
	if rec.Dumps() != 1 {
		t.Fatalf("dumps = %d", rec.Dumps())
	}
	s.Emit(EvLiveness, "a", 0, "lost again") // inside cooldown
	clk.RunFor(5 * time.Second)
	if rec.Dumps() != 1 {
		t.Fatal("cooldown did not suppress the re-trigger")
	}
	clk.RunFor(30 * time.Second)
	s.Emit(EvLiveness, "a", 0, "lost later") // past cooldown
	clk.RunFor(2 * time.Second)
	if rec.Dumps() != 2 {
		t.Fatalf("dumps = %d, want 2 after cooldown expiry", rec.Dumps())
	}
}

func TestRecorderDeadlineMissBurst(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	rec := s.EnableFlightRecorder(RecorderOptions{FlushDelay: time.Second})
	// burstN spaced misses: no burst.
	for i := 0; i < burstN; i++ {
		s.Emit(EvDeadlineMiss, "v", 1, "late")
		clk.RunFor(3 * time.Second)
	}
	if recPending(rec) || rec.Dumps() != 0 {
		t.Fatal("spaced misses must not trigger")
	}
	// burstN misses inside burstWindow: burst.
	for i := 0; i < burstN; i++ {
		s.Emit(EvDeadlineMiss, "v", 1, "late")
		clk.RunFor(100 * time.Millisecond)
	}
	if !recPending(rec) {
		t.Fatal("burst did not trigger")
	}
	clk.RunFor(2 * time.Second)
	if rec.Dumps() != 1 {
		t.Fatalf("dumps = %d", rec.Dumps())
	}
}

func TestRecorderDumpFileFormat(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	dir := t.TempDir()
	rec := s.EnableFlightRecorder(RecorderOptions{Dir: dir, FlushDelay: time.Second})
	s.Emit(EvHeartbeatMiss, "srv", 2, "unanswered")
	s.FrameSpans().RecordEmit("v", 40*time.Microsecond) // tees into the ring
	s.Emit(EvLiveness, "srv", 0, "lost")
	clk.RunFor(2 * time.Second)
	if err := rec.LastErr(); err != nil {
		t.Fatal(err)
	}
	path := rec.LastDumpPath()
	if !strings.HasSuffix(path, "flight-001.jsonl") {
		t.Fatalf("dump path = %q", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var hdr struct {
		Anomaly string `json:"anomaly"`
		At      string `json:"at"`
		Events  int    `json:"events"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header %q: %v", sc.Text(), err)
	}
	if hdr.Anomaly != "liveness-loss" || hdr.Events == 0 || hdr.At == "" {
		t.Fatalf("header = %+v", hdr)
	}
	kinds := map[string]bool{}
	lines := 0
	for sc.Scan() {
		var ln struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kinds[ln.Kind] = true
		lines++
	}
	if lines != hdr.Events {
		t.Fatalf("header claims %d events, file has %d", hdr.Events, lines)
	}
	for _, want := range []string{"heartbeat-miss", "frame-sample", "liveness", "anomaly"} {
		if !kinds[want] {
			t.Fatalf("dump missing %q events (has %v)", want, kinds)
		}
	}
}

func TestRecorderRingBounded(t *testing.T) {
	clk := clock.NewSim()
	rec := NewRecorder(clk, RecorderOptions{})
	const n = recorderCap + 100
	for i := 0; i < n; i++ {
		rec.Record(Event{At: clk.Now(), Kind: EvFrameDrop, Value: int64(i)})
	}
	evs := rec.win.Events()
	if len(evs) != recorderCap {
		t.Fatalf("ring holds %d, want %d", len(evs), recorderCap)
	}
	if evs[0].Value != n-recorderCap || evs[recorderCap-1].Value != n-1 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", evs[0].Value, evs[7].Value)
	}
}

// recPending reports whether an anomaly is awaiting its flush.
func recPending(r *Recorder) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending != ""
}
