package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/hermes"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/stats"
)

// E12FlightRecorder kills a lesson's server mid-playback and shows the flight
// recorder's automatic post-mortem: the anomaly-triggered dump holds the
// whole causal window — frames drying up, heartbeats going unanswered, the
// liveness loss, the failover decision, and the session resuming at the
// replica — without anyone having asked for a trace beforehand.
func E12FlightRecorder(seed uint64) (*stats.Table, error) {
	svc, err := hermes.NewSimulated(hermes.Config{
		Seed: seed,
		Servers: []hermes.ServerSpec{
			{Name: "srv-a", Lessons: []hermes.LessonSpec{{Name: "av", Source: avDoc(60 * time.Second)}}},
			{Name: "srv-b", Lessons: []hermes.LessonSpec{{Name: "av", Source: avDoc(60 * time.Second)}}},
		},
		ServerOptions: server.Options{Grace: 3 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
	})
	if err != nil {
		return nil, err
	}
	if err := svc.Enroll("alice", "pw", qos.Standard); err != nil {
		return nil, err
	}
	scope := obs.NewScope(svc.Clk)
	var dumpAnomaly string
	var dump []obs.Event
	scope.EnableFlightRecorder(obs.RecorderOptions{
		// The failover fires ~13s after the liveness loss (the reconnect's
		// retry budget); the flush delay must bridge that gap so one dump
		// holds the whole incident.
		FlushDelay: 15 * time.Second,
		Sink: func(anomaly string, events []obs.Event) {
			if dumpAnomaly == "" { // keep the first (incident-opening) dump
				dumpAnomaly = anomaly
				dump = events
			}
		},
	})
	b := svc.NewBrowser("alice", "pw", client.Options{Obs: scope})
	b.Connect("srv-a")
	svc.Run(time.Second)
	if lc := b.LastConnect(); lc == nil || !lc.OK {
		return nil, fmt.Errorf("E12: connect to srv-a failed")
	}
	b.RequestDoc("av")
	svc.Run(5 * time.Second)

	tKill := svc.Clk.Now()
	svc.Net.SetHostDown("srv-a", true)
	svc.Run(45 * time.Second)

	if dumpAnomaly == "" {
		return nil, fmt.Errorf("E12: no flight dump fired within 45s of the crash")
	}

	// Pull the incident's causal chain out of the dump, in dump order.
	tb := stats.NewTable(
		fmt.Sprintf("E12 — flight recorder post-mortem (trigger: %s, %d events in window)",
			dumpAnomaly, len(dump)),
		"t+ (s)", "event", "stream", "value", "note")
	find := func(match func(obs.Event) bool) *obs.Event {
		for i := range dump {
			if match(dump[i]) {
				return &dump[i]
			}
		}
		return nil
	}
	chain := []struct {
		label string
		// ordered: part of the causal chain whose dump order is asserted.
		// The first two rows are scene-setting; ring eviction during the
		// deadline-miss storm makes their relative order unstable.
		ordered bool
		ev      *obs.Event
	}{
		{"first deadline miss", false, find(func(e obs.Event) bool { return e.Kind == obs.EvDeadlineMiss })},
		{"anomaly trigger", false, find(func(e obs.Event) bool { return e.Kind == obs.EvAnomaly })},
		{"heartbeat unanswered", true, find(func(e obs.Event) bool { return e.Kind == obs.EvHeartbeatMiss })},
		{"liveness lost", true, find(func(e obs.Event) bool { return e.Kind == obs.EvLiveness && e.Value == 0 })},
		{"failover decision", true, find(func(e obs.Event) bool { return e.Kind == obs.EvFailover })},
		{"session resumed", true, find(func(e obs.Event) bool { return e.Kind == obs.EvSessionStart && e.Stream == "srv-b" })},
	}
	prev := -1
	for _, c := range chain {
		if c.ev == nil {
			return nil, fmt.Errorf("E12: dump (%d events) is missing the %s", len(dump), c.label)
		}
		if c.ordered {
			idx := 0
			for i := range dump {
				if &dump[i] == c.ev {
					idx = i
					break
				}
			}
			if idx < prev {
				return nil, fmt.Errorf("E12: %s appears out of causal order in the dump", c.label)
			}
			prev = idx
		}
		tb.AddRow(fmt.Sprintf("%+.1f", c.ev.At.Sub(tKill).Seconds()),
			c.ev.Kind.String(), c.ev.Stream, c.ev.Value, c.ev.Note)
	}
	if got := scope.Counter("client_failovers").Value(); got != 1 {
		return nil, fmt.Errorf("E12: client_failovers = %d, want 1", got)
	}
	return tb, nil
}
