package qos

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

func mgr() (*clock.Virtual, *Manager) {
	clk := clock.NewSim()
	m := NewManager(clk, Policy{})
	return clk, m
}

func report(id string, loss float64, jitter time.Duration) Report {
	return Report{StreamID: id, Loss: loss, Jitter: jitter}
}

func TestDegradeOnSustainedLoss(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5, Floor: 4})
	var acts []Action
	for i := 0; i < 5; i++ {
		acts = append(acts, m.Feedback(report("v", 0.2, 0))...)
		clk.RunFor(time.Second)
	}
	if len(acts) == 0 {
		t.Fatal("no degrade under 20% loss")
	}
	if acts[0].Kind != ActDegrade || acts[0].From != 0 || acts[0].To != 1 {
		t.Fatalf("first action = %+v", acts[0])
	}
	lvl, stopped := level(m, "v")
	if lvl < 2 || stopped {
		t.Fatalf("level = %d stopped=%v after sustained loss", lvl, stopped)
	}
	// Loss persisting all the way down the ladder eventually cuts the
	// stream off at the floor.
	for i := 0; i < 10; i++ {
		acts = append(acts, m.Feedback(report("v", 0.2, 0))...)
		clk.RunFor(3 * time.Second)
	}
	if _, stopped := level(m, "v"); !stopped {
		t.Fatal("stream not cut off after exhausting the ladder")
	}
	if last := acts[len(acts)-1]; last.Kind != ActCutoff {
		t.Fatalf("last action = %+v", last)
	}
}

func TestHoldDownSpacesDegrades(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5})
	n := 0
	for i := 0; i < 10; i++ {
		n += len(m.Feedback(report("v", 0.5, 0)))
		clk.RunFor(100 * time.Millisecond) // 10 reports within one holddown
	}
	if n != 1 {
		t.Fatalf("%d degrades within hold-down window, want 1", n)
	}
}

func TestCutoffAtFloor(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 3, Floor: 2})
	var last Action
	for i := 0; i < 20; i++ {
		for _, a := range m.Feedback(report("v", 0.5, 0)) {
			last = a
		}
		clk.RunFor(3 * time.Second)
	}
	if last.Kind != ActCutoff {
		t.Fatalf("last action = %+v, want cutoff", last)
	}
	if _, stopped := level(m, "v"); !stopped {
		t.Fatal("stream not stopped after cutoff")
	}
}

func TestUpgradeAfterRecoveryWithHysteresis(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5})
	// Degrade twice.
	for i := 0; i < 2; i++ {
		m.Feedback(report("v", 0.5, 0))
		clk.RunFor(3 * time.Second)
	}
	lvl, _ := level(m, "v")
	if lvl != 2 {
		t.Fatalf("level = %d, want 2", lvl)
	}
	// Now perfect conditions: upgrade only after UpgradeHold (8s).
	upgrades := 0
	for i := 0; i < 45; i++ {
		for _, a := range m.Feedback(report("v", 0, 0)) {
			if a.Kind == ActUpgrade {
				upgrades++
			}
		}
		clk.RunFor(time.Second)
	}
	lvl, _ = level(m, "v")
	if lvl != 0 {
		t.Fatalf("level = %d after long recovery, want 0", lvl)
	}
	if upgrades != 2 {
		t.Fatalf("upgrades = %d", upgrades)
	}
	// Upgrades spaced ≥ 8s: 2 upgrades need ≥ 16s of the 30s window.
	acts := m.Actions()
	var times []int
	for i, a := range acts {
		if a.Kind == ActUpgrade {
			times = append(times, i)
		}
	}
	if len(times) != 2 {
		t.Fatalf("action log: %+v", acts)
	}
}

func TestRestoreAfterCutoff(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 2, Floor: 1})
	for i := 0; i < 10; i++ {
		m.Feedback(report("v", 0.5, 0))
		clk.RunFor(3 * time.Second)
	}
	if _, stopped := level(m, "v"); !stopped {
		t.Fatal("not stopped")
	}
	var restored bool
	for i := 0; i < 30; i++ {
		for _, a := range m.Feedback(report("v", 0, 0)) {
			if a.Kind == ActRestore {
				restored = true
			}
		}
		clk.RunFor(2 * time.Second)
	}
	if !restored {
		t.Fatal("stream never restored")
	}
	// After restoration at the floor, continued good conditions upgrade
	// back toward full quality.
	lvl, stopped := level(m, "v")
	if stopped || lvl != 0 {
		t.Fatalf("after restore+recovery: level=%d stopped=%v", lvl, stopped)
	}
}

func TestVideoFirstRuleRedirectsAudioDegrade(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "a", Kind: scenario.TypeAudio, Group: "g", Levels: 4, Floor: 3})
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Group: "g", Levels: 5, Floor: 4})
	// Loss reported on the AUDIO stream: the video must take the hit.
	acts := m.Feedback(report("a", 0.5, 0))
	if len(acts) != 1 || acts[0].StreamID != "v" || acts[0].Kind != ActDegrade {
		t.Fatalf("actions = %+v", acts)
	}
	aLvl, _ := level(m, "a")
	vLvl, _ := level(m, "v")
	if aLvl != 0 || vLvl != 1 {
		t.Fatalf("levels a=%d v=%d", aLvl, vLvl)
	}
	// Exhaust the video ladder; only then is audio degraded.
	for i := 0; i < 30; i++ {
		m.Feedback(report("a", 0.5, 0))
		clk.RunFor(3 * time.Second)
	}
	aLvl, _ = level(m, "a")
	_, vStopped := level(m, "v")
	if !vStopped && aLvl == 0 {
		t.Fatal("audio untouched but video not exhausted")
	}
	if aLvl == 0 {
		t.Fatal("audio never degraded after video exhausted")
	}
}

func TestJitterAloneTriggersDegrade(t *testing.T) {
	_, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5})
	acts := m.Feedback(report("v", 0, 500*time.Millisecond))
	if len(acts) != 1 || acts[0].Kind != ActDegrade {
		t.Fatalf("actions = %+v", acts)
	}
}

func TestEWMASmoothingIgnoresSingleSpike(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5})
	// Long clean history.
	for i := 0; i < 20; i++ {
		m.Feedback(report("v", 0, 0))
		clk.RunFor(time.Second)
	}
	// One moderate spike (loss 8% won't push EWMA(α=0.3) over 5% from 0).
	acts := m.Feedback(report("v", 0.08, 0))
	if len(acts) != 0 {
		t.Fatalf("single spike caused %+v", acts)
	}
}

func TestLevelSeriesTrajectory(t *testing.T) {
	clk, m := mgr()
	m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5})
	m.Feedback(report("v", 0.5, 0))
	clk.RunFor(3 * time.Second)
	m.Feedback(report("v", 0.5, 0))
	s := m.LevelSeries("v")
	if s == nil || len(s.Points()) != 3 { // initial 0, then two degrades
		t.Fatalf("series = %+v", s)
	}
	if v := s.Points()[2].V; v != 2 {
		t.Fatalf("level after the second degrade = %v", v)
	}
	if m.LevelSeries("nope") != nil {
		t.Fatal("phantom series")
	}
}

func TestFeedbackUnknownStream(t *testing.T) {
	_, m := mgr()
	if acts := m.Feedback(report("ghost", 1, 0)); acts != nil {
		t.Fatalf("actions for unknown stream: %+v", acts)
	}
}

func TestRegisterClampsFloor(t *testing.T) {
	_, m := mgr()
	m.Register(StreamConfig{ID: "x", Levels: 3, Floor: 99})
	m.Register(StreamConfig{ID: "y", Levels: 0})
	if lvl, _ := level(m, "x"); lvl != 0 {
		t.Fatal("initial level")
	}
}

func TestActionKindStrings(t *testing.T) {
	for k := ActNone; k <= ActRestore; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

// --- admission ---

func TestAdmissionFullThenDegradedThenRejected(t *testing.T) {
	a := NewAdmission(10_000_000) // 10 Mb/s
	// Economy cap = 6 Mb/s.
	d1 := a.Request(ConnRequest{User: "u1", Class: Economy, PeakRate: 4_000_000, MinRate: 1_000_000})
	if d1.Verdict != Admitted || d1.Rate != 4_000_000 {
		t.Fatalf("d1 = %+v", d1)
	}
	// 2 Mb/s free under the economy cap → degraded admission.
	d2 := a.Request(ConnRequest{User: "u2", Class: Economy, PeakRate: 4_000_000, MinRate: 1_000_000})
	if d2.Verdict != AdmittedDegraded || d2.Rate != 2_000_000 {
		t.Fatalf("d2 = %+v", d2)
	}
	// Nothing left under the economy cap → rejection.
	d3 := a.Request(ConnRequest{User: "u3", Class: Economy, PeakRate: 4_000_000, MinRate: 1_000_000})
	if d3.Verdict != Rejected {
		t.Fatalf("d3 = %+v", d3)
	}
	adm, deg, rej := a.Counts(Economy)
	if adm != 1 || deg != 1 || rej != 1 {
		t.Fatalf("counts = %d/%d/%d", adm, deg, rej)
	}
}

func TestAdmissionClassCapsDiffer(t *testing.T) {
	a := NewAdmission(10_000_000)
	// Fill to 6 Mb/s with economy.
	a.Request(ConnRequest{User: "e", Class: Economy, PeakRate: 6_000_000, MinRate: 6_000_000})
	// Economy is capped out, standard still fits.
	if d := a.Request(ConnRequest{User: "e2", Class: Economy, PeakRate: 1_000_000, MinRate: 1_000_000}); d.Verdict != Rejected {
		t.Fatalf("economy over cap admitted: %+v", d)
	}
	if d := a.Request(ConnRequest{User: "s", Class: Standard, PeakRate: 1_000_000, MinRate: 1_000_000}); d.Verdict != Admitted {
		t.Fatalf("standard rejected: %+v", d)
	}
}

func TestPremiumSqueezesLowerClasses(t *testing.T) {
	a := NewAdmission(10_000_000)
	e := a.Request(ConnRequest{User: "e", Class: Economy, PeakRate: 5_000_000, MinRate: 1_000_000})
	s := a.Request(ConnRequest{User: "s", Class: Standard, PeakRate: 3_000_000, MinRate: 2_000_000})
	// 8 Mb/s reserved, 2 free. Premium wants 6 Mb/s min 5 Mb/s.
	d := a.Request(ConnRequest{User: "p", Class: Premium, PeakRate: 6_000_000, MinRate: 5_000_000})
	if d.Verdict == Rejected {
		t.Fatalf("premium rejected: %+v", d)
	}
	if len(d.Squeezed) == 0 {
		t.Fatal("no connections squeezed")
	}
	// Economy squeezed before standard.
	if d.Squeezed[0] != e.ConnID {
		t.Fatalf("squeezed = %v, economy first (id %d)", d.Squeezed, e.ConnID)
	}
	if a.conns[e.ConnID].rate < 1_000_000-1 {
		t.Fatalf("economy squeezed below floor: %v", a.conns[e.ConnID].rate)
	}
	// Total never exceeds capacity.
	if a.reserved > 10_000_000+1 {
		t.Fatalf("reserved = %v", a.reserved)
	}
	_ = s
}

func TestPremiumRejectedWhenFloorsBlock(t *testing.T) {
	a := NewAdmission(10_000_000)
	// Economy at its floor: nothing to squeeze.
	a.Request(ConnRequest{User: "e", Class: Economy, PeakRate: 6_000_000, MinRate: 6_000_000})
	a.Request(ConnRequest{User: "s", Class: Standard, PeakRate: 2_500_000, MinRate: 2_500_000})
	d := a.Request(ConnRequest{User: "p", Class: Premium, PeakRate: 9_000_000, MinRate: 8_000_000})
	if d.Verdict != Rejected {
		t.Fatalf("premium admitted impossibly: %+v", d)
	}
}

func TestReleaseFreesCapacity(t *testing.T) {
	a := NewAdmission(1_000_000)
	d := a.Request(ConnRequest{User: "u", Class: Premium, PeakRate: 1_000_000})
	if a.Utilization() != 1 {
		t.Fatalf("utilization = %v", a.Utilization())
	}
	a.Release(d.ConnID)
	if a.reserved != 0 {
		t.Fatal("release did not free")
	}
	a.Release(999) // unknown: no panic
	if a.conns[999] != nil {
		t.Fatal("unknown rate")
	}
}

func TestMinRateDefaultsToPeak(t *testing.T) {
	a := NewAdmission(1_000_000)
	a.Request(ConnRequest{User: "u1", Class: Premium, PeakRate: 900_000})
	// 100 kb/s free; peak 200 kb/s, no explicit min → min=peak → reject.
	d := a.Request(ConnRequest{User: "u2", Class: Premium, PeakRate: 200_000})
	if d.Verdict != Rejected {
		t.Fatalf("d = %+v", d)
	}
}

func TestPricingClassStringsAndCaps(t *testing.T) {
	if Economy.String() != "economy" || Premium.ShareCap() != 1.0 {
		t.Fatal("class props wrong")
	}
	if !(Economy.ShareCap() < Standard.ShareCap() && Standard.ShareCap() < Premium.ShareCap()) {
		t.Fatal("caps not ordered")
	}
	for v := Admitted; v <= Rejected; v++ {
		if v.String() == "unknown" {
			t.Fatal("verdict unnamed")
		}
	}
}

// --- client monitor ---

func TestClientMonitorEndToEnd(t *testing.T) {
	clk := clock.NewSim()
	cm := NewClientMonitor(clk, 0xC0FFEE)
	cm.Track("v", 42)
	r := cm.Receiver("v")
	if r == nil || r.SSRC != 42 {
		t.Fatalf("receiver = %+v", r)
	}
	at := clk.Now()
	for i := 0; i < 10; i++ {
		p := &rtp.Packet{SSRC: 42, SequenceNumber: uint16(i), Timestamp: rtp.ToTimestamp(time.Duration(i) * 40 * time.Millisecond)}
		if i == 4 {
			continue // lose one packet
		}
		r.Observe(p, at.Add(time.Duration(i)*40*time.Millisecond+50*time.Millisecond), at.Add(time.Duration(i)*40*time.Millisecond))
	}
	reps := cm.Reports()
	if len(reps) != 1 || reps[0].StreamID != "v" {
		t.Fatalf("reports = %+v", reps)
	}
	if reps[0].Loss < 0.05 || reps[0].Loss > 0.15 {
		t.Fatalf("loss = %v, want ≈0.1", reps[0].Loss)
	}
	if reps[0].Delay != 50*time.Millisecond {
		t.Fatalf("delay = %v", reps[0].Delay)
	}
	rr := cm.BuildRR()
	if rr.SSRC != 0xC0FFEE || len(rr.Reports) != 1 {
		t.Fatalf("RR = %+v", rr)
	}
	// Round trip through the wire into a server-side report.
	var got rtp.ReceiverReport
	if err := got.Unmarshal(rr.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	rep := FromRTCP("v", got.Reports[0], clk.Now())
	if rep.StreamID != "v" || rep.Loss < 0.05 {
		t.Fatalf("FromRTCP = %+v", rep)
	}
}

// TestClientMonitorRetrack pins what a second document's Track does: the
// stream keeps its place in ID order and its last sender report, and its
// reception state starts afresh under the new SSRC.
func TestClientMonitorRetrack(t *testing.T) {
	clk := clock.NewSim()
	cm := NewClientMonitor(clk, 7)
	cm.Track("v", 1)
	cm.Track("a", 2)
	first := cm.Receiver("v")
	first.Observe(&rtp.Packet{SequenceNumber: 5}, clk.Now(), time.Time{})
	cm.ObserveSR("v", rtp.SenderReport{SSRC: 1, PacketCount: 9})
	cm.Track("v", 3)
	if r := cm.Receiver("v"); r == first || r.SSRC != 3 || r.Expected() != 0 {
		t.Fatalf("re-tracked receiver = %+v", r)
	}
	if sr, ok := cm.LastSR("v"); !ok || sr.PacketCount != 9 {
		t.Fatalf("sender report lost on re-track: %+v %v", sr, ok)
	}
	rr := cm.BuildRR()
	if len(rr.Reports) != 2 || rr.Reports[0].SSRC != 2 || rr.Reports[1].SSRC != 3 {
		t.Fatalf("RR blocks = %+v, want a's then v's", rr.Reports)
	}
}

func TestClientMonitorUntracked(t *testing.T) {
	clk := clock.NewSim()
	cm := NewClientMonitor(clk, 1)
	cm.ObserveSR("ghost", rtp.SenderReport{SSRC: 9}) // no panic
	if cm.Receiver("ghost") != nil {
		t.Fatal("phantom receiver")
	}
	if _, ok := cm.LastSR("ghost"); ok {
		t.Fatal("phantom sender report")
	}
	if rr := cm.BuildRR(); rr.SSRC != 1 || len(rr.Reports) != 0 {
		t.Fatalf("RR = %+v", rr)
	}
	var none *ClientMonitor
	if reps := none.Reports(); reps != nil {
		t.Fatalf("nil monitor reports %+v", reps)
	}
}

func TestRenegotiateDown(t *testing.T) {
	a := NewAdmission(10_000_000)
	d := a.Request(ConnRequest{User: "u", Class: Standard, PeakRate: 4_000_000, MinRate: 1_000_000})
	got, ok := a.Renegotiate(d.ConnID, 2_000_000)
	if !ok || got != 2_000_000 {
		t.Fatalf("renegotiate down = %v %v", got, ok)
	}
	if a.reserved != 2_000_000 {
		t.Fatalf("reserved = %v", a.reserved)
	}
	// Below the floor clamps to the floor.
	got, ok = a.Renegotiate(d.ConnID, 100)
	if !ok || got != 1_000_000 {
		t.Fatalf("floor clamp = %v %v", got, ok)
	}
}

func TestRenegotiateUpWithinCapacity(t *testing.T) {
	a := NewAdmission(10_000_000)
	d := a.Request(ConnRequest{User: "u", Class: Premium, PeakRate: 2_000_000, MinRate: 1_000_000})
	got, ok := a.Renegotiate(d.ConnID, 5_000_000)
	if !ok || got != 5_000_000 {
		t.Fatalf("renegotiate up = %v %v", got, ok)
	}
	// Beyond capacity: partial grant, ok=false.
	got, ok = a.Renegotiate(d.ConnID, 50_000_000)
	if ok || got != 10_000_000 {
		t.Fatalf("over-capacity = %v %v", got, ok)
	}
	// Unknown connection.
	if _, ok := a.Renegotiate(999, 1); ok {
		t.Fatal("phantom renegotiation")
	}
}

func TestRenegotiateFreesRoomForNewAdmissions(t *testing.T) {
	a := NewAdmission(3_000_000)
	d1 := a.Request(ConnRequest{User: "u1", Class: Premium, PeakRate: 3_000_000, MinRate: 500_000})
	// Full: the next request is rejected.
	if d := a.Request(ConnRequest{User: "u2", Class: Premium, PeakRate: 2_000_000, MinRate: 2_000_000}); d.Verdict != Rejected {
		t.Fatalf("admitted into a full server: %+v", d)
	}
	// u1's grading drops its mix to 1 Mb/s; renegotiation frees 2 Mb/s.
	a.Renegotiate(d1.ConnID, 1_000_000)
	if d := a.Request(ConnRequest{User: "u2", Class: Premium, PeakRate: 2_000_000, MinRate: 2_000_000}); d.Verdict != Admitted {
		t.Fatalf("freed bandwidth not reusable: %+v", d)
	}
}

// TestLevelMatchesGatesSharedFlow pins the predicate the shared-flow layer
// attaches and detaches on: an unregistered stream matches only level 0 (no
// grading has happened), a registered stream matches exactly its current
// level, and a cut-off stream matches nothing.
func TestLevelMatchesGatesSharedFlow(t *testing.T) {
	clk, m := mgr()
	var unregistered Graded
	if !unregistered.LevelMatches(0) {
		t.Fatal("unregistered stream must match level 0")
	}
	if unregistered.LevelMatches(1) {
		t.Fatal("unregistered stream must not match a degraded level")
	}
	g := m.Register(StreamConfig{ID: "v", Kind: scenario.TypeVideo, Levels: 5, Floor: 4})
	if !g.LevelMatches(0) {
		t.Fatal("freshly registered stream must match level 0")
	}
	for i := 0; i < 5 && g.LevelMatches(0); i++ {
		m.Feedback(report("v", 0.2, 0))
		clk.RunFor(time.Second)
	}
	lvl, stopped := level(m, "v")
	if gl, gs := g.Level(); gl != lvl || gs != stopped {
		t.Fatalf("handle reads %d/%v, manager %d/%v", gl, gs, lvl, stopped)
	}
	if lvl == 0 || stopped {
		t.Fatalf("level = %d stopped=%v, wanted a live degrade", lvl, stopped)
	}
	if g.LevelMatches(0) {
		t.Fatal("degraded stream still matches level 0")
	}
	if !g.LevelMatches(lvl) {
		t.Fatalf("degraded stream does not match its own level %d", lvl)
	}
	for i := 0; i < 20; i++ {
		m.Feedback(report("v", 0.2, 0))
		clk.RunFor(3 * time.Second)
	}
	if _, stopped := g.Level(); !stopped {
		t.Fatal("stream not cut off")
	}
	for l := 0; l < 5; l++ {
		if g.LevelMatches(l) {
			t.Fatalf("cut-off stream matches level %d", l)
		}
	}
}

// level reads stream id's quality level in m, and whether it is stopped.
func level(m *Manager, id string) (int, bool) {
	return Graded{m: m, st: m.streams[id]}.Level()
}
