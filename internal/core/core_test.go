package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/playout"
	"repro/internal/qos"
)

func TestPlayFigure2Clean(t *testing.T) {
	res, err := Play(PlayConfig{DocSource: hml.Figure2Source, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Startup <= 0 {
		t.Fatal("no startup delay recorded")
	}
	if res.Plays() < res.Expected()*9/10 {
		t.Fatalf("plays = %d/%d", res.Plays(), res.Expected())
	}
	if res.QualityScore() < 0.9 {
		t.Fatalf("quality = %v on a clean LAN", res.QualityScore())
	}
	if res.Net.Delivered == 0 {
		t.Fatal("no media delivered")
	}
	// The Figure 2 sync group was tracked.
	if len(res.Skew) != 1 {
		t.Fatalf("skew groups = %d", len(res.Skew))
	}
}

func TestPlayDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int, float64) {
		res, err := Play(PlayConfig{DocSource: hml.Figure2Source, Seed: 42,
			Link: netsim.LinkConfig{Bandwidth: 3_000_000, Delay: 30 * time.Millisecond,
				Jitter: 40 * time.Millisecond, Loss: 0.02}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Plays(), res.Gaps(), res.QualityScore()
	}
	p1, g1, q1 := run()
	p2, g2, q2 := run()
	if p1 != p2 || g1 != g2 || q1 != q2 {
		t.Fatalf("non-deterministic: %d/%d/%v vs %d/%d/%v", p1, g1, q1, p2, g2, q2)
	}
}

// TestDisplayTraceRepeats pins the whole display trace, not just its totals:
// streams that start and tick at the same instant (Figure 2's AU_VI pair, every
// 40 ms) must record their events in the same order on every run, which they
// did not while the player armed its timers in map order.
func TestDisplayTraceRepeats(t *testing.T) {
	type step struct {
		at     time.Duration
		stream string
		kind   playout.EventKind
		frame  int
	}
	trace := func() []step {
		res, err := Play(PlayConfig{DocSource: hml.Figure2Source, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var out []step
		for _, ev := range res.Display.Events() {
			out = append(out, step{ev.At, ev.StreamID, ev.Kind, ev.Frame.Index})
		}
		return out
	}
	want := trace()
	for run := 1; run < 20; run++ {
		if got := trace(); !slices.Equal(got, want) {
			t.Fatalf("rerun %d recorded a different display trace (%d events against %d)", run, len(got), len(want))
		}
	}
}

func TestPlayRejectsBadDocument(t *testing.T) {
	if _, err := Play(PlayConfig{DocSource: "<broken"}); err == nil {
		t.Fatal("bad doc accepted")
	}
}

func TestPlayRejectsWhenAdmissionFails(t *testing.T) {
	cfg := PlayConfig{DocSource: hml.Figure2Source}
	cfg.Server.Capacity = 1 // effectively no bandwidth
	cfg.Client.PeakRate = 5_000_000
	cfg.Client.MinRate = 5_000_000
	if _, err := Play(cfg); err == nil {
		t.Fatal("admission failure not surfaced")
	}
}

func TestPlayCongestionDegradesQuality(t *testing.T) {
	clean, err := Play(PlayConfig{DocSource: hml.Figure2Source, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	congested, err := Play(PlayConfig{
		DocSource: hml.Figure2Source, Seed: 7,
		Phases: []netsim.Phase{{Start: 5 * time.Second, Duration: 20 * time.Second,
			LossFactor: 600, ExtraJitter: 150 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if congested.QualityScore() >= clean.QualityScore() {
		t.Fatalf("congestion did not hurt: %v vs %v", congested.QualityScore(), clean.QualityScore())
	}
	if congested.Gaps() <= clean.Gaps() {
		t.Fatalf("gaps: %d vs %d", congested.Gaps(), clean.Gaps())
	}
}

func TestPlayGradingActsUnderCongestion(t *testing.T) {
	// The server files the viewer's QoS manager under its control address,
	// so a non-default control port must still find it.
	for _, port := range []int{0, 6100} {
		t.Run(fmt.Sprintf("ctrl-port-%d", port), func(t *testing.T) {
			cfg := PlayConfig{
				DocSource: `<TITLE>long</TITLE><AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=30> </AU_VI>`,
				Seed:      9,
				Phases:    []netsim.Phase{{Start: 3 * time.Second, Duration: 20 * time.Second, LossFactor: 400}},
			}
			cfg.Client.FeedbackInterval = 500 * time.Millisecond
			cfg.Client.CtrlPort = port
			res, err := Play(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DegradeCount() == 0 {
				t.Fatalf("no degrades; actions = %+v", res.Actions)
			}
			vSeries := res.LevelSeries["v"]
			if vSeries == nil || len(vSeries.Points()) < 2 {
				t.Fatalf("video level series = %+v", vSeries)
			}
			// Video degraded before audio (video-first rule).
			for _, a := range res.Actions {
				if a.Kind == qos.ActDegrade {
					if a.StreamID != "v" {
						t.Fatalf("first degrade on %s", a.StreamID)
					}
					break
				}
			}
		})
	}
}

func TestResultAccessorsOnEmpty(t *testing.T) {
	r := &Result{}
	if r.Gaps() != 0 || r.Plays() != 0 || r.Expected() != 0 || r.Drops() != 0 {
		t.Fatal("empty result sums non-zero")
	}
	if r.QualityScore() != 0 || r.MaxSkewMS() != 0 || r.MeanSkewMS() != 0 {
		t.Fatal("empty result metrics non-zero")
	}
	if r.DegradeCount() != 0 {
		t.Fatal("empty degrades")
	}
}

func TestPlayExposesBufferStats(t *testing.T) {
	res, err := Play(PlayConfig{DocSource: hml.Figure2Source, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buffers) != 5 {
		t.Fatalf("buffer stats for %d streams", len(res.Buffers))
	}
	v := res.Buffers["V"]
	if v.Pushed == 0 || v.Popped == 0 {
		t.Fatalf("video buffer stats = %+v", v)
	}
}
