package qos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// A congested sync group must emit GradeChange events, and the video-first
// rule means the first events hit the video stream before any audio event.
func TestGraderEmitsGradeChangeEventsVideoFirst(t *testing.T) {
	clk := clock.NewSim()
	scope := obs.NewScope(clk)
	m := NewManager(clk, Policy{})
	m.SetObs(scope)
	m.Register(StreamConfig{ID: "a", Kind: scenario.TypeAudio, Group: "g", Levels: 4, Floor: 3})
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Group: "g", Levels: 5, Floor: 4})

	// Sustained loss reported on the audio stream: video takes the hits
	// until its ladder is exhausted, then audio degrades.
	for i := 0; i < 30; i++ {
		m.Feedback(Report{StreamID: "a", Loss: 0.5})
		clk.RunFor(3 * time.Second)
	}

	evs := scope.Trace().Events()
	var grades []obs.Event
	for _, ev := range evs {
		if ev.Kind == obs.EvGradeChange {
			grades = append(grades, ev)
		}
	}
	if len(grades) == 0 {
		t.Fatalf("no grade-change events; trace = %+v", evs)
	}
	firstAudio := -1
	lastVideoBefore := -1
	for i, ev := range grades {
		if ev.Stream == "a" && firstAudio == -1 {
			firstAudio = i
		}
		if ev.Stream == "v" && firstAudio == -1 {
			lastVideoBefore = i
		}
	}
	if firstAudio == -1 {
		t.Fatal("audio never degraded after video exhausted")
	}
	if lastVideoBefore == -1 {
		t.Fatalf("first grade-change hit %q, want video before audio", grades[0].Stream)
	}
	// Events carry the new level and a kind → level note.
	if grades[0].Value != 1 || !strings.Contains(grades[0].Note, "degrade") {
		t.Fatalf("first grade event = %+v", grades[0])
	}
	// Timestamps follow the virtual clock monotonically.
	for i := 1; i < len(grades); i++ {
		if grades[i].At.Before(grades[i-1].At) {
			t.Fatalf("timestamps regress: %v then %v", grades[i-1].At, grades[i].At)
		}
	}
	// Action-kind counters landed in the registry.
	found := false
	for _, p := range scope.Registry().Snapshot() {
		if p.Name == "qos_degrade" && p.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("qos_degrade counter missing; snapshot = %+v", scope.Registry().Snapshot())
	}
}

// Every admission verdict must emit an AdmissionDecision event recording the
// pricing class, and bump the class/verdict-labeled counter.
func TestAdmissionEmitsDecisionEventsWithClass(t *testing.T) {
	scope := obs.NewScope(clock.NewSim())
	a := NewAdmission(10_000_000)
	a.SetObs(scope)

	a.Request(ConnRequest{User: "e1", Class: Economy, PeakRate: 5_000_000, MinRate: 1_000_000})
	a.Request(ConnRequest{User: "s1", Class: Standard, PeakRate: 3_000_000, MinRate: 2_000_000})
	// Premium squeezes the lower classes to get in.
	a.Request(ConnRequest{User: "p1", Class: Premium, PeakRate: 6_000_000, MinRate: 5_000_000})
	// Economy pool is now exhausted.
	a.Request(ConnRequest{User: "e2", Class: Economy, PeakRate: 4_000_000, MinRate: 4_000_000})

	var decisions []obs.Event
	for _, ev := range scope.Trace().Events() {
		if ev.Kind == obs.EvAdmissionDecision {
			decisions = append(decisions, ev)
		}
	}
	if len(decisions) != 4 {
		t.Fatalf("decisions = %d, want 4: %+v", len(decisions), decisions)
	}
	wantClass := []string{"class=economy", "class=standard", "class=premium", "class=economy"}
	for i, ev := range decisions {
		if !strings.Contains(ev.Note, wantClass[i]) {
			t.Fatalf("decision %d note %q missing %q", i, ev.Note, wantClass[i])
		}
	}
	if !strings.Contains(decisions[2].Note, "squeezed=") {
		t.Fatalf("premium decision note %q lacks squeeze record", decisions[2].Note)
	}
	if !strings.Contains(decisions[3].Note, "rejected") {
		t.Fatalf("exhausted-pool decision note %q not rejected", decisions[3].Note)
	}

	// Labeled counters: one admitted economy, one rejected economy.
	snap := map[string]float64{}
	for _, p := range scope.Registry().Snapshot() {
		snap[p.Name] = p.Value
	}
	if snap[obs.Label("admission_decisions", "class", "economy", "verdict", "admitted")] != 1 {
		t.Fatalf("admitted economy counter wrong; snapshot = %+v", snap)
	}
	if snap[obs.Label("admission_decisions", "class", "economy", "verdict", "rejected")] != 1 {
		t.Fatalf("rejected economy counter wrong; snapshot = %+v", snap)
	}
	if snap["admission_reserved_bps"] <= 0 {
		t.Fatalf("reserved gauge not set; snapshot = %+v", snap)
	}
}
