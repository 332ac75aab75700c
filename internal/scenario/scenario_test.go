package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hml"
)

func fig2(t testing.TB) *Scenario {
	sc, err := FromDocument(hml.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestFromDocumentFigure2(t *testing.T) {
	sc := fig2(t)
	if sc.Title != "Figure 2 scenario" {
		t.Fatalf("title = %q", sc.Title)
	}
	// 1 text + 2 images + 2 sync halves + 1 audio = 6 streams.
	if len(sc.Streams) != 6 {
		t.Fatalf("streams = %d, want 6", len(sc.Streams))
	}
	if len(sc.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(sc.Links))
	}
	a1 := sc.Stream("A1")
	v := sc.Stream("V")
	if a1 == nil || v == nil {
		t.Fatal("missing sync streams")
	}
	if a1.SyncGroup == "" || a1.SyncGroup != v.SyncGroup {
		t.Fatalf("sync groups: %q vs %q", a1.SyncGroup, v.SyncGroup)
	}
	if a1.Type != TypeAudio || v.Type != TypeVideo {
		t.Fatalf("types: %v/%v", a1.Type, v.Type)
	}
}

func TestFromDocumentRejectsInvalid(t *testing.T) {
	doc := hml.MustParse(`<TITLE>t</TITLE><AU ID=a STARTIME=0 DURATION=5> </AU>`)
	if _, err := FromDocument(doc); err == nil {
		t.Fatal("invalid document accepted")
	}
}

func TestParseConvenience(t *testing.T) {
	sc, err := Parse(hml.Figure2Source)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Stream("I1") == nil {
		t.Fatal("I1 missing")
	}
	if _, err := Parse("<bogus"); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestStreamActiveAt(t *testing.T) {
	s := &Stream{Start: 2 * time.Second, Duration: 3 * time.Second}
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{0, false}, {2 * time.Second, true}, {4 * time.Second, true},
		{5 * time.Second, false}, {10 * time.Second, false},
	}
	for _, c := range cases {
		if got := s.ActiveAt(c.t); got != c.want {
			t.Errorf("ActiveAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	open := &Stream{Start: time.Second}
	if open.ActiveAt(0) || !open.ActiveAt(time.Hour) {
		t.Fatal("open-ended activity wrong")
	}
}

func TestScenarioLength(t *testing.T) {
	sc := fig2(t)
	if got := sc.Length(); got != hml.Figure2Times.LinkAt {
		t.Fatalf("Length = %v, want %v", got, hml.Figure2Times.LinkAt)
	}
}

func TestLengthOpenEndedStill(t *testing.T) {
	sc, err := Parse(`<TITLE>t</TITLE>
<IMG SOURCE=i ID=i STARTIME=5> </IMG>
<AU SOURCE=a ID=a STARTIME=0 DURATION=3> </AU>`)
	if err != nil {
		t.Fatal(err)
	}
	// Open-ended image contributes its start time only; audio ends at 3s;
	// so length is 5s (image appears at 5 and stays).
	if got := sc.Length(); got != 5*time.Second {
		t.Fatalf("Length = %v, want 5s", got)
	}
}

func TestLessonGeneratorLength(t *testing.T) {
	sc, err := Parse(hml.LessonSource("algo", 5, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Length() != 150*time.Second {
		t.Fatalf("length = %v", sc.Length())
	}
}

func TestNextTimedLink(t *testing.T) {
	sc := fig2(t)
	l := sc.NextTimedLink(0)
	if l == nil || l.At != hml.Figure2Times.LinkAt {
		t.Fatalf("NextTimedLink(0) = %+v", l)
	}
	if sc.NextTimedLink(l.At+time.Second) != nil {
		t.Fatal("link found past the last activation")
	}
}

func TestActiveAtBoundaries(t *testing.T) {
	sc := fig2(t)
	ids := map[string]bool{}
	for _, s := range sc.Streams {
		if s.ActiveAt(10 * time.Second) {
			ids[s.ID] = true
		}
	}
	for _, want := range []string{"I2", "A1", "V"} {
		if !ids[want] {
			t.Errorf("stream %s not active at 10s (got %v)", want, ids)
		}
	}
	if ids["I1"] {
		t.Error("I1 still active at 10s")
	}
}

func TestBuildScheduleOrdering(t *testing.T) {
	sc := fig2(t)
	sch := BuildSchedule(sc)
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sch.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(sch.Entries))
	}
	var order []string
	for _, e := range sch.Entries {
		order = append(order, e.Stream.ID)
	}
	want := []string{"I1", "I2", "A1", "V", "A2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !sch.HasLinkAt || sch.LinkAt != hml.Figure2Times.LinkAt {
		t.Fatalf("LinkAt = %v/%v", sch.LinkAt, sch.HasLinkAt)
	}
}

func TestSchedulePeers(t *testing.T) {
	sch := BuildSchedule(fig2(t))
	a1 := sch.Entry("A1")
	if a1 == nil || len(a1.Peers) != 1 || a1.Peers[0] != "V" {
		t.Fatalf("A1 peers = %+v", a1)
	}
	v := sch.Entry("V")
	if v == nil || len(v.Peers) != 1 || v.Peers[0] != "A1" {
		t.Fatalf("V peers = %+v", v)
	}
	if sch.Entry("nope") != nil {
		t.Fatal("phantom entry")
	}
}

func TestScheduleValidateCatchesBrokenPeers(t *testing.T) {
	sch := BuildSchedule(fig2(t))
	sch.Entry("A1").Peers = []string{"ghost"}
	if err := sch.Validate(); err == nil || !strings.Contains(err.Error(), "missing peer") {
		t.Fatalf("err = %v", err)
	}
	sch = BuildSchedule(fig2(t))
	sch.Entry("V").PlayAt += time.Second
	// Re-sort not applied: detect either ordering or peer-timing issue.
	if err := sch.Validate(); err == nil {
		t.Fatal("mis-timed peers accepted")
	}
}

func TestBuildFlowLeadsAndOrdering(t *testing.T) {
	sc := fig2(t)
	flows := BuildFlow(sc, FlowOptions{PreRoll: 2 * time.Second})
	if len(flows) != 5 {
		t.Fatalf("flows = %d, want 5", len(flows))
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].SendAt < flows[i-1].SendAt {
			t.Fatal("flow scenario not ordered by send time")
		}
	}
	byID := map[string]*FlowSpec{}
	for _, f := range flows {
		byID[f.Stream.ID] = f
	}
	// I1 starts at 0: send time clamps to 0 and the pre-roll shrinks.
	if f := byID["I1"]; f.SendAt != 0 || f.PreRoll != 0 {
		t.Fatalf("I1 flow = %+v", f)
	}
	// A1 starts at 10s with a 2s pre-roll → send at 8s.
	if f := byID["A1"]; f.SendAt != 8*time.Second || f.PreRoll != 2*time.Second {
		t.Fatalf("A1 flow = %+v", f)
	}
	// I2 is a still starting at 8s; it gets the same 2s lead → send at 6s.
	if f := byID["I2"]; f.SendAt != 6*time.Second || f.PreRoll != 2*time.Second {
		t.Fatalf("I2 flow = %+v", f)
	}
	// Video volume: 1.5 Mb/s × 12 s / 8 = 2.25 MB.
	if f := byID["V"]; f.Bytes != int64(1_500_000*12/8) {
		t.Fatalf("V bytes = %d", f.Bytes)
	}
}

func TestBuildFlowDefaults(t *testing.T) {
	flows := BuildFlow(fig2(t), FlowOptions{})
	for _, f := range flows {
		if f.Rate <= 0 {
			t.Fatalf("flow %s rate = %v", f.Stream.ID, f.Rate)
		}
	}
}

// Still flows must price what the wire carries: the RateFunc value for a
// still is its total encoded size in bits, so the flow rate is that size
// spread over the transmission lead and Bytes is the actual one-shot size —
// not size/8 "per second" figures that ignored the lead entirely.
func TestBuildFlowStillAccounting(t *testing.T) {
	sc := fig2(t)
	flows := BuildFlow(sc, FlowOptions{PreRoll: 4 * time.Second})
	for _, f := range flows {
		if f.Stream.Type.TimeSensitive() {
			continue
		}
		totalBits := DefaultRates(f.Stream)
		if f.Bytes != int64(totalBits/8) {
			t.Fatalf("%s bytes = %d, want %d", f.Stream.ID, f.Bytes, int64(totalBits/8))
		}
		lead := f.Stream.Start - f.SendAt
		if lead <= 0 {
			lead = 4 * time.Second
		}
		want := totalBits / lead.Seconds()
		if diff := f.Rate - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s rate = %v, want %v (size %v bits over %v lead)",
				f.Stream.ID, f.Rate, want, totalBits, lead)
		}
	}
}

func TestTimelineEventsOrdered(t *testing.T) {
	evs := Timeline(fig2(t))
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
	// Expect: starts for I1..A2 (5), stops (5), 1 timed link = 11.
	if len(evs) != 11 {
		t.Fatalf("events = %d, want 11", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Kind != EventLink || last.At != hml.Figure2Times.LinkAt {
		t.Fatalf("last event = %+v", last)
	}
}

func TestEventKindString(t *testing.T) {
	if EventStart.String() != "start" || EventStop.String() != "stop" || EventLink.String() != "link" {
		t.Fatal("event kind names wrong")
	}
}

func TestRenderTimelineContainsRows(t *testing.T) {
	out := RenderTimeline(fig2(t), 64)
	for _, id := range []string{"I1", "I2", "A1", "V", "A2", "link"} {
		if !strings.Contains(out, id) {
			t.Errorf("row %s missing:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "=") || !strings.Contains(out, "^") {
		t.Fatalf("bars missing:\n%s", out)
	}
}

func TestRenderTimelineEmptyAndNarrow(t *testing.T) {
	empty := &Scenario{Title: "x"}
	if out := RenderTimeline(empty, 64); !strings.Contains(out, "empty") {
		t.Fatalf("empty render = %q", out)
	}
	// Narrow width is clamped, must not panic.
	_ = RenderTimeline(fig2(t), 1)
}

func TestCheckFigure2RelationsHold(t *testing.T) {
	if bad := CheckFigure2Relations(fig2(t)); len(bad) != 0 {
		t.Fatalf("violated: %v", bad)
	}
}

func TestCheckFigure2RelationsDetectViolation(t *testing.T) {
	sc := fig2(t)
	sc.Stream("V").Start += time.Second
	bad := CheckFigure2Relations(sc)
	if len(bad) == 0 {
		t.Fatal("broken sync not detected")
	}
	sc2 := &Scenario{}
	if bad := CheckFigure2Relations(sc2); len(bad) == 0 {
		t.Fatal("missing streams not detected")
	}
}

func TestMediaTypeProperties(t *testing.T) {
	if !TypeAudio.TimeSensitive() || !TypeVideo.TimeSensitive() {
		t.Fatal("audio/video must be time sensitive")
	}
	if TypeText.TimeSensitive() || TypeImage.TimeSensitive() {
		t.Fatal("text/image must not be time sensitive")
	}
	names := map[MediaType]string{TypeText: "text", TypeImage: "image", TypeAudio: "audio", TypeVideo: "video"}
	for mt, want := range names {
		if mt.String() != want {
			t.Errorf("%d.String() = %q", mt, mt.String())
		}
	}
}

func TestLessonScenario(t *testing.T) {
	sc, err := Parse(hml.LessonSource("db", 4, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sch := BuildSchedule(sc)
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.SyncGroups()) != 4 {
		t.Fatalf("sync groups = %d", len(sc.SyncGroups()))
	}
	if sc.Length() != 80*time.Second {
		t.Fatalf("length = %v", sc.Length())
	}
}

func TestAfterResolution(t *testing.T) {
	sc, err := Parse(hml.GrammarCorpus()["after-chain"])
	if err != nil {
		t.Fatal(err)
	}
	// ra: 0–4s; rb AFTER ra → 4–8s; rc AFTER rb +1s → 9–14s.
	if got := sc.Stream("rb").Start; got != 4*time.Second {
		t.Fatalf("rb start = %v", got)
	}
	if got := sc.Stream("rc").Start; got != 9*time.Second {
		t.Fatalf("rc start = %v", got)
	}
	if sc.Length() != 14*time.Second {
		t.Fatalf("length = %v", sc.Length())
	}
	// The provenance field is cleared once resolved.
	if sc.Stream("rb").After != "" {
		t.Fatal("After not cleared")
	}
}

func TestAfterCycleRejected(t *testing.T) {
	_, err := Parse(`<TITLE>t</TITLE>
<IMG SOURCE=a ID=p AFTER=q DURATION=1> </IMG>
<IMG SOURCE=b ID=q AFTER=p DURATION=1> </IMG>`)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestAfterOnSyncGroupKeepsHalvesCoTimed(t *testing.T) {
	sc, err := Parse(`<TITLE>t</TITLE>
<IMG SOURCE=i ID=lead STARTIME=0 DURATION=6> </IMG>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=ga ID=gv AFTER=lead DURATION=8> </AU_VI>`)
	if err != nil {
		t.Fatal(err)
	}
	ga, gv := sc.Stream("ga"), sc.Stream("gv")
	if ga.Start != 6*time.Second {
		t.Fatalf("ga start = %v", ga.Start)
	}
	if gv.Start != ga.Start || gv.End() != ga.End() {
		t.Fatalf("halves diverged: %v/%v vs %v/%v", ga.Start, ga.End(), gv.Start, gv.End())
	}
	// The schedule stays valid.
	if err := BuildSchedule(sc).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterOpenEndedTarget(t *testing.T) {
	// AFTER an open-ended still means after its appearance.
	sc, err := Parse(`<TITLE>t</TITLE>
<IMG SOURCE=i ID=bg STARTIME=2> </IMG>
<AU SOURCE=a ID=voice AFTER=bg DURATION=3> </AU>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Stream("voice").Start; got != 2*time.Second {
		t.Fatalf("voice start = %v", got)
	}
}
