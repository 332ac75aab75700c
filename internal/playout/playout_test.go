package playout

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/scenario"
)

const avSource = `<TITLE>av</TITLE>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=10> </AU_VI>`

const fullSource = `<TITLE>full</TITLE>
<IMG SOURCE=img/i ID=i STARTIME=1 DURATION=5 WIDTH=64 HEIGHT=64> </IMG>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=10> </AU_VI>
<HLINK HREF=next.hml AT=12 KIND=SEQ> </HLINK>`

// rig wires a scenario to buffers, a display and a player on a virtual
// clock, and provides a frame feeder that emulates network arrivals.
type rig struct {
	clk  *clock.Virtual
	sc   *scenario.Scenario
	sch  *scenario.Schedule
	bufs *buffer.Set
	disp *Display
	p    *Player
}

func newRig(t testing.TB, src string, opts Options) *rig {
	t.Helper()
	sc, err := scenario.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim()
	bufs := buffer.NewSet()
	for _, s := range sc.TimedStreams() {
		fi := 40 * time.Millisecond
		switch s.Type {
		case scenario.TypeAudio:
			fi = 20 * time.Millisecond
		case scenario.TypeImage, scenario.TypeText:
			fi = time.Second
		}
		bufs.Create(buffer.Config{
			StreamID:      s.ID,
			FrameInterval: fi,
			Window:        400 * time.Millisecond,
		})
	}
	disp := NewDisplay()
	sch := scenario.BuildSchedule(sc)
	p := New(clk, sc, sch, bufs, disp, opts)
	return &rig{clk: clk, sc: sc, sch: sch, bufs: bufs, disp: disp, p: p}
}

// feed schedules arrivals for stream id: each frame of src in [0,dur)
// arrives at startOffset + PTS + delay(i).
func (r *rig) feed(id string, src media.Source, dur time.Duration, startOffset time.Duration, delay func(i int) time.Duration) {
	buf := r.bufs.Get(id)
	for _, f := range frames(src, dur) {
		f := f
		d := startOffset + f.PTS
		if delay != nil {
			d += delay(f.Index)
		}
		r.clk.AfterFunc(d, func() {
			buf.Push(buffer.Item{Frame: f, ArrivedAt: r.clk.Now()})
		})
	}
}

// frames returns src's level-0 frames with PTS in [0, dur).
func frames(src media.Source, dur time.Duration) []media.Frame {
	var out []media.Frame
	for i := 0; ; i++ {
		f := src.FrameAt(i, 0)
		if f.PTS >= dur {
			return out
		}
		out = append(out, f)
	}
}

func (r *rig) run(d time.Duration) { r.clk.RunFor(d) }

func TestPerfectDeliveryPlaysEverything(t *testing.T) {
	r := newRig(t, avSource, Options{EnableSkewControl: true})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, nil)
	// Start after the 400ms window fills.
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(15 * time.Second)
	rep := r.p.Report()
	a, v := rep.Streams["a"], rep.Streams["v"]
	if a.Plays < a.Expected-2 || v.Plays < v.Expected-2 {
		t.Fatalf("plays a=%d/%d v=%d/%d", a.Plays, a.Expected, v.Plays, v.Expected)
	}
	// Few or no gaps under perfect delivery with a filled window.
	if a.Gaps > 1 || v.Gaps > 1 {
		t.Fatalf("gaps a=%d v=%d", a.Gaps, v.Gaps)
	}
	// Skew stays tiny.
	if sk := r.p.skew["sync-1"]; sk == nil || sk.Max() > 100 {
		t.Fatalf("skew sample = %+v", sk)
	}
	if r.disp.Count(EvStop, "a") != 1 || r.disp.Count(EvStop, "v") != 1 {
		t.Fatal("streams did not stop")
	}
}

func TestOutageCausesGapsWithoutControl(t *testing.T) {
	r := newRig(t, avSource, Options{EnableSkewControl: false})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	// Video frames due in [2s,4s) all arrive at 4s (burst outage).
	r.feed("v", vi, 10*time.Second, 0, func(i int) time.Duration {
		pts := time.Duration(i) * 40 * time.Millisecond
		if pts >= 2*time.Second && pts < 4*time.Second {
			return 4*time.Second - pts
		}
		return 0
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(15 * time.Second)
	rep := r.p.Report()
	v := rep.Streams["v"]
	if v.Gaps < 20 {
		t.Fatalf("video gaps = %d, want many during outage", v.Gaps)
	}
	// Without control the backlog leaves lasting skew.
	sk := r.p.skew["sync-1"]
	if sk == nil {
		t.Fatal("no skew recorded")
	}
	if last := sk.Percentile(100); last < 500 {
		t.Fatalf("max skew %vms, want large without control", last)
	}
}

func TestSkewControlCatchesUpAfterOutage(t *testing.T) {
	r := newRig(t, avSource, Options{EnableSkewControl: true, SkewThreshold: 80 * time.Millisecond})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, func(i int) time.Duration {
		pts := time.Duration(i) * 40 * time.Millisecond
		if pts >= 2*time.Second && pts < 4*time.Second {
			return 4*time.Second - pts
		}
		return 0
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(15 * time.Second)
	rep := r.p.Report()
	v := rep.Streams["v"]
	if v.Drops == 0 {
		t.Fatal("skew control never dropped")
	}
	// Final skew must be back under control: sample the tail.
	sk := r.p.skew["sync-1"]
	vals := sk.Values()
	tail := vals[len(vals)-1]
	// Values() sorts ascending, so compare via a fresh measurement:
	// re-check that median skew is far below the no-control case.
	if sk.Percentile(50) > 400 {
		t.Fatalf("median skew %.0fms with control", sk.Percentile(50))
	}
	_ = tail
	if r.disp.Count(EvDrop, "v") == 0 {
		t.Fatal("no drop events recorded")
	}
}

func TestWatermarkControlDropsStaleBacklog(t *testing.T) {
	r := newRig(t, avSource, Options{EnableWatermarkControl: true})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	// A 3s video outage whose frames all arrive late in one burst: a
	// large backlog of frames whose deadlines have already passed.
	r.feed("v", vi, 10*time.Second, 0, func(i int) time.Duration {
		pts := time.Duration(i) * 40 * time.Millisecond
		if pts >= time.Second && pts < 4*time.Second {
			return 4*time.Second - pts
		}
		return 0
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(6 * time.Second)
	if r.disp.Count(EvDrop, "v") == 0 {
		t.Fatal("watermark control never dropped the stale backlog")
	}
	vb := r.bufs.Get("v")
	if vb.AboveHigh() {
		t.Fatalf("occupancy %v still above high WM %v", vb.Occupancy(), 2*vb.Window)
	}
}

func TestWatermarkControlKeepsFutureFrames(t *testing.T) {
	r := newRig(t, avSource, Options{EnableWatermarkControl: true})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	// The whole video arrives up front: occupancy far above the high
	// watermark, but every frame is ahead of its deadline — none may be
	// dropped.
	r.feed("v", vi, 10*time.Second, 0, func(i int) time.Duration {
		return -time.Duration(i) * 40 * time.Millisecond // all at t=0
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(12 * time.Second)
	rep := r.p.Report()
	v := rep.Streams["v"]
	if v.Drops != 0 {
		t.Fatalf("future frames dropped: %d", v.Drops)
	}
	if v.Plays < v.Expected-2 {
		t.Fatalf("plays = %d/%d", v.Plays, v.Expected)
	}
}

func TestStillPlaysOnTimeAndLate(t *testing.T) {
	r := newRig(t, fullSource, Options{})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	im := media.NewImage(64, 64)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, nil)
	// Image due at presentation time 1s arrives late at sim time 3s.
	r.clk.AfterFunc(3*time.Second, func() {
		r.bufs.Get("i").Push(buffer.Item{Frame: im.FrameAt(0, 0), ArrivedAt: r.clk.Now()})
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(15 * time.Second)
	if r.disp.Count(EvLate, "i") != 1 {
		t.Fatalf("late events = %d, want 1", r.disp.Count(EvLate, "i"))
	}
	if r.disp.Count(EvPlay, "i") != 1 {
		t.Fatalf("image plays = %d, want 1", r.disp.Count(EvPlay, "i"))
	}
	// Lateness recorded: ~1.5s (arrived 3s, due at presentation 1s which
	// is sim 1.5s).
	for _, ev := range r.disp.Events() {
		if ev.StreamID == "i" && ev.Kind == EvPlay {
			if ev.Lateness < time.Second || ev.Lateness > 2*time.Second {
				t.Fatalf("image lateness = %v", ev.Lateness)
			}
		}
	}
}

// TestLateStillRetriesOnOneTimer pins a late still's retries to the stream's
// one timer: data that arrives 2 s after the still's deadline costs forty
// retries and not one entry of p.timers, and the still plays the instant the
// data is there.
func TestLateStillRetriesOnOneTimer(t *testing.T) {
	r := newRig(t, `<TITLE>still</TITLE>
<IMG SOURCE=img/i ID=i STARTIME=1 DURATION=5 WIDTH=64 HEIGHT=64> </IMG>`, Options{})
	im := media.NewImage(64, 64)
	r.clk.AfterFunc(3*time.Second, func() {
		r.bufs.Get("i").Push(buffer.Item{Frame: im.FrameAt(0, 0), ArrivedAt: r.clk.Now()})
	})
	r.p.Start()
	timers := func() int {
		r.p.mu.Lock()
		defer r.p.mu.Unlock()
		return len(r.p.timers)
	}
	r.run(1100 * time.Millisecond) // started at 1 s, late, retrying
	before := timers()
	r.run(1800 * time.Millisecond) // 36 retries later, the data not yet in
	if after := timers(); after != before {
		t.Fatalf("len(p.timers) went from %d to %d while the still retried", before, after)
	}
	r.run(10 * time.Second)
	want := []Event{
		{At: time.Second, StreamID: "i", Kind: EvStart},
		{At: time.Second, StreamID: "i", Kind: EvLate, Note: "data not yet arrived"},
		{At: 3 * time.Second, StreamID: "i", Kind: EvPlay, Frame: im.FrameAt(0, 0), Lateness: 2 * time.Second},
		{At: 6 * time.Second, StreamID: "i", Kind: EvStop},
	}
	if got := r.disp.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace:\n got  %+v\n want %+v", got, want)
	}
}

func TestTimedLinkFiresAndFinishes(t *testing.T) {
	var followed scenario.Link
	r := newRig(t, fullSource, Options{OnLink: func(l scenario.Link) { followed = l }})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	im := media.NewImage(64, 64)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, nil)
	r.bufs.Get("i").Push(buffer.Item{Frame: im.FrameAt(0, 0)})
	r.p.Start()
	r.run(20 * time.Second)
	if followed.Target != "next.hml" {
		t.Fatalf("link followed = %+v", followed)
	}
	if !r.p.Finished() {
		t.Fatal("presentation not finished after link")
	}
	if r.disp.Count(EvLink, "") != 1 {
		t.Fatal("link event missing")
	}
	// Link fires at presentation time 12s.
	for _, ev := range r.disp.Events() {
		if ev.Kind == EvLink && ev.At != 12*time.Second {
			t.Fatalf("link at %v", ev.At)
		}
	}
}

func TestPauseFreezesPlayout(t *testing.T) {
	r := newRig(t, avSource, Options{})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, nil)
	r.p.Start()
	r.run(2 * time.Second)
	r.p.Pause()
	if !r.p.paused {
		t.Fatal("not paused")
	}
	playsAtPause := r.disp.Count(EvPlay, "a")
	r.run(5 * time.Second)
	if got := r.disp.Count(EvPlay, "a"); got != playsAtPause {
		t.Fatalf("plays advanced during pause: %d → %d", playsAtPause, got)
	}
	if got := r.p.Now(); got != 2*time.Second {
		t.Fatalf("presentation clock moved during pause: %v", got)
	}
	r.p.Resume()
	if r.p.paused {
		t.Fatal("still paused")
	}
	r.run(20 * time.Second)
	rep := r.p.Report()
	a := rep.Streams["a"]
	if a.Plays < a.Expected*9/10 {
		t.Fatalf("after resume plays = %d/%d", a.Plays, a.Expected)
	}
	if r.disp.Count(EvPause, "") != 1 || r.disp.Count(EvResume, "") != 1 {
		t.Fatal("pause/resume events missing")
	}
}

// lateClock is a virtual clock on which every callback runs late by late,
// as a loaded host's wall clock runs them: a timer due at d calls fn at
// d+late, and a Reset from inside fn counts from there.
type lateClock struct {
	v    *clock.Virtual
	late time.Duration
}

func (c lateClock) Now() time.Time                  { return c.v.Now() }
func (c lateClock) Since(t time.Time) time.Duration { return c.v.Since(t) }
func (c lateClock) AfterFunc(d time.Duration, fn func()) *clock.Timer {
	return c.v.AfterFunc(d, func() { c.v.AfterFunc(c.late, fn) })
}

// TestLateTicksKeepTheSchedule: when every tick runs δ late, tick k of a
// stream lands at its ideal instant + δ, not at ideal + (k+1)·δ: each tick is
// armed for the instant the one before was due plus one frame interval.
func TestLateTicksKeepTheSchedule(t *testing.T) {
	const late = 3 * time.Millisecond
	r := newRig(t, avSource, Options{})
	r.p = New(lateClock{r.clk, late}, r.sc, r.sch, r.bufs, r.disp, Options{})
	r.feed("a", media.NewAudio(nil), 10*time.Second, 0, nil)
	r.feed("v", media.NewVideo("v", nil), 10*time.Second, 0, nil)
	r.p.Start()
	r.run(3 * time.Second)
	ticks := map[string]int{}
	for _, ev := range r.disp.Events() {
		if ev.Kind != EvPlay && ev.Kind != EvGap {
			continue
		}
		k := ticks[ev.StreamID]
		ticks[ev.StreamID]++
		interval := 40 * time.Millisecond
		if ev.StreamID == "a" {
			interval = 20 * time.Millisecond
		}
		if want := time.Duration(k)*interval + late; ev.At != want {
			t.Fatalf("stream %s tick %d at %v, want %v", ev.StreamID, k, ev.At, want)
		}
	}
	if ticks["a"] < 140 || ticks["v"] < 70 {
		t.Fatalf("ticks = %v, want about 150 audio and 75 video", ticks)
	}
}

func TestDoubleStartAndFinishIdempotent(t *testing.T) {
	r := newRig(t, avSource, Options{})
	r.p.Start()
	r.p.Start()
	r.p.Finish()
	r.p.Finish()
	if !r.p.Finished() {
		t.Fatal("not finished")
	}
	// Pause after finish is a no-op.
	r.p.Pause()
	if r.p.paused {
		t.Fatal("paused after finish")
	}
}

func TestReportExpectations(t *testing.T) {
	r := newRig(t, fullSource, Options{})
	rep := r.p.Report()
	// Audio: 10s / 20ms = 500; video: 10s / 40ms = 250; image still: 1.
	if rep.Streams["a"].Expected != 500 {
		t.Fatalf("audio expected = %d", rep.Streams["a"].Expected)
	}
	if rep.Streams["v"].Expected != 250 {
		t.Fatalf("video expected = %d", rep.Streams["v"].Expected)
	}
	if rep.Streams["i"].Expected != 1 {
		t.Fatalf("image expected = %d", rep.Streams["i"].Expected)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvStart; k <= EvResume; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if EventKind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

func TestHoldWhenLaggardHasNothingToDrop(t *testing.T) {
	// Audio runs normally; video receives nothing at all after the prefix:
	// the laggard has an empty buffer, so the leader must hold.
	r := newRig(t, avSource, Options{EnableSkewControl: true, SkewThreshold: 80 * time.Millisecond})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, time.Second, 0, nil) // only the first second of video
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(6 * time.Second)
	if r.disp.Count(EvHold, "a") == 0 {
		t.Fatal("leader never held while laggard starved")
	}
}

func TestRenderTraceShowsTrouble(t *testing.T) {
	r := newRig(t, avSource, Options{EnableSkewControl: true})
	au := media.NewAudio(nil)
	vi := media.NewVideo("v", nil)
	r.feed("a", au, 10*time.Second, 0, nil)
	r.feed("v", vi, 10*time.Second, 0, func(i int) time.Duration {
		pts := time.Duration(i) * 40 * time.Millisecond
		if pts >= 2*time.Second && pts < 4*time.Second {
			return 4*time.Second - pts
		}
		return 0
	})
	r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
	r.run(15 * time.Second)
	out := RenderTrace(r.disp, r.sch, 64)
	if !strings.Contains(out, "a ") || !strings.Contains(out, "v ") {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(out, "!") {
		t.Fatalf("gaps not drawn:\n%s", out)
	}
	if !strings.Contains(out, "gaps") {
		t.Fatalf("note missing:\n%s", out)
	}
	// Summary text renders every stream and the skew line.
	sum := r.p.Report().Summarize()
	if !strings.Contains(sum, "plays") || !strings.Contains(sum, "skew") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestRenderTraceEmpty(t *testing.T) {
	out := RenderTrace(NewDisplay(), &scenario.Schedule{}, 40)
	if !strings.Contains(out, "empty") {
		t.Fatalf("empty = %q", out)
	}
}

// Property: whatever the arrival pattern (early, late, bursty, missing
// tail), every playout slot resolves to exactly one play, gap or hold:
// plays + gaps + holds ≈ expected (modulo the start/stop boundary), plays
// never exceed expected, and the playout clock never plays a frame before
// its PTS is due.
func TestQuickSlotConservation(t *testing.T) {
	f := func(seed uint64, dropMask []bool, delayMS []uint16) bool {
		r := newRig(t, avSource, Options{EnableSkewControl: seed%2 == 0})
		au := media.NewAudio(nil)
		vi := media.NewVideo("v", nil)
		r.feed("a", au, 10*time.Second, 0, nil)
		buf := r.bufs.Get("v")
		for _, fr := range frames(vi, 10*time.Second) {
			fr := fr
			if int(fr.Index) < len(dropMask) && dropMask[fr.Index] {
				continue // lost frame
			}
			d := fr.PTS
			if int(fr.Index) < len(delayMS) {
				d += time.Duration(delayMS[fr.Index]%1000) * time.Millisecond
			}
			r.clk.AfterFunc(d, func() {
				buf.Push(buffer.Item{Frame: fr, ArrivedAt: r.clk.Now()})
			})
		}
		r.clk.AfterFunc(500*time.Millisecond, r.p.Start)
		r.run(20 * time.Second)
		rep := r.p.Report()
		v := rep.Streams["v"]
		if v.Plays > v.Expected {
			t.Logf("plays %d > expected %d", v.Plays, v.Expected)
			return false
		}
		slots := v.Plays + v.Gaps + v.Holds
		if slots < v.Expected-2 || slots > v.Expected+2 {
			t.Logf("slots %d (plays %d gaps %d holds %d) vs expected %d",
				slots, v.Plays, v.Gaps, v.Holds, v.Expected)
			return false
		}
		// No frame played before it was due.
		for _, ev := range r.disp.Events() {
			if ev.StreamID == "v" && ev.Kind == EvPlay {
				due := ev.Frame.PTS // entry.PlayAt is 0 for this scenario
				if ev.At < due {
					t.Logf("frame %d played at %v before its PTS %v", ev.Frame.Index, ev.At, due)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
