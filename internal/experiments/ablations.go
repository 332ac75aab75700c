package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/hermes"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/stats"
)

// A1DegradeOrder ablates the video-first rule: the paper degrades video
// before audio because "users can tolerate lower video quality rather than
// not hear well". With the rule off, audio takes direct hits.
func A1DegradeOrder(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("A1 — ablation: degrade video before audio",
		"video-first", "audio degrades", "video degrades", "audio cut off")
	for _, videoFirst := range []bool{true, false} {
		cfg := core.PlayConfig{
			DocSource: avDoc(30 * time.Second),
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 2_500_000,
				Delay: 30 * time.Millisecond, Jitter: 20 * time.Millisecond},
			Phases: []netsim.Phase{{Start: 4 * time.Second, Duration: 20 * time.Second,
				BandwidthFactor: 0.45}},
		}
		cfg.Server.Policy.GradeIndependently = !videoFirst
		cfg.Client.FeedbackInterval = 500 * time.Millisecond
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("A1 videoFirst=%v: %w", videoFirst, err)
		}
		aDeg, vDeg, aCut := 0, 0, 0
		for _, a := range res.Actions {
			switch {
			case a.StreamID == "a" && a.Kind == qos.ActDegrade:
				aDeg++
			case a.StreamID == "v" && (a.Kind == qos.ActDegrade || a.Kind == qos.ActCutoff):
				vDeg++
			case a.StreamID == "a" && a.Kind == qos.ActCutoff:
				aCut++
			}
		}
		tb.AddRow(onOff(videoFirst), aDeg, vDeg, aCut)
	}
	return tb, nil
}

// A2Hysteresis ablates the upgrade hold-down: without it the grader flaps
// between levels on every fluctuation instead of upgrading "gracefully ...
// when the network's condition permits it".
func A2Hysteresis(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("A2 — ablation: upgrade hysteresis (hold-down)",
		"upgrade hold", "grade changes", "degrades", "upgrades")
	for _, hold := range []time.Duration{500 * time.Millisecond, 8 * time.Second} {
		cfg := core.PlayConfig{
			DocSource: avDoc(40 * time.Second),
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 2_500_000,
				Delay: 30 * time.Millisecond, Jitter: 20 * time.Millisecond},
			// Oscillating congestion: three short crunches.
			Phases: []netsim.Phase{
				{Start: 4 * time.Second, Duration: 4 * time.Second, BandwidthFactor: 0.45},
				{Start: 14 * time.Second, Duration: 4 * time.Second, BandwidthFactor: 0.45},
				{Start: 24 * time.Second, Duration: 4 * time.Second, BandwidthFactor: 0.45},
			},
			RunFor: 55 * time.Second,
		}
		cfg.Server.Policy.UpgradeHold = hold
		cfg.Client.FeedbackInterval = 500 * time.Millisecond
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("A2 hold=%v: %w", hold, err)
		}
		deg, up := 0, 0
		for _, a := range res.Actions {
			switch a.Kind {
			case qos.ActDegrade, qos.ActCutoff:
				deg++
			case qos.ActUpgrade, qos.ActRestore:
				up++
			}
		}
		tb.AddRow(hold, deg+up, deg, up)
	}
	return tb, nil
}

// A3WindowSafety ablates the safety multiplier of the statistical window
// calculation (window = safety × jitter + frame interval).
func A3WindowSafety(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("A3 — ablation: window-calculation safety factor (150ms jitter)",
		"safety", "window", "startup", "gaps")
	for _, safety := range []float64{0.5, 1, 2, 4} {
		cfg := core.PlayConfig{
			DocSource: avDoc(20 * time.Second),
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 8_000_000,
				Delay: 20 * time.Millisecond, Jitter: 20 * time.Millisecond},
			Phases: []netsim.Phase{{Start: 3 * time.Second, Duration: 17 * time.Second,
				ExtraJitter: 150 * time.Millisecond}},
		}
		cfg.Client.WindowSafety = safety
		cfg.Client.JitterBudget = 150 * time.Millisecond
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("A3 safety=%v: %w", safety, err)
		}
		window := time.Duration(safety*float64(150*time.Millisecond)) + 40*time.Millisecond
		if min := 160 * time.Millisecond; window < min {
			window = min
		}
		tb.AddRow(fmt.Sprintf("%.1f×", safety), window, res.Startup, res.Gaps())
	}
	return tb, nil
}

// E9Scale grows the number of concurrent viewers against one server's
// admission capacity: every admitted session keeps playing cleanly while
// the overflow is rejected (or squeezed), showing the admission mechanism
// protecting the sessions already in service.
func E9Scale(seed uint64, quick bool) (*stats.Table, error) {
	counts := []int{2, 5, 10, 20}
	if quick {
		counts = []int{2, 10}
	}
	tb := stats.NewTable("E9 — concurrent viewers vs admission capacity (10 Mb/s server)",
		"viewers", "admitted", "rejected", "utilization", "mean plays/session")
	for _, n := range counts {
		svc, err := hermes.NewSimulated(hermes.Config{
			Seed: seed,
			Servers: []hermes.ServerSpec{{
				Name:    "srv",
				Lessons: hermes.MakeCourse("c", 1, 1, 10*time.Second),
			}},
			ServerOptions: server.Options{Capacity: 10_000_000},
		})
		if err != nil {
			return nil, err
		}
		var browsers []*client.Client
		for i := 0; i < n; i++ {
			user := fmt.Sprintf("u%d", i)
			svc.Enroll(user, "pw", qos.Standard)
			b := svc.NewBrowser(user, "pw", client.Options{
				PeakRate: 1_600_000, MinRate: 1_600_000,
			})
			browsers = append(browsers, b)
			b.Connect("srv")
		}
		svc.Run(2 * time.Second)
		admitted, rejected := 0, 0
		for _, b := range browsers {
			if lc := b.LastConnect(); lc != nil && lc.OK {
				admitted++
				b.RequestDoc("c-L1")
			} else {
				rejected++
			}
		}
		util := svc.Servers["srv"].Admission().Utilization()
		svc.Run(25 * time.Second)
		totalPlays := 0
		for _, b := range browsers {
			if p := b.Player(); p != nil {
				for _, s := range p.Report().Streams {
					totalPlays += s.Plays
				}
			}
		}
		mean := 0.0
		if admitted > 0 {
			mean = float64(totalPlays) / float64(admitted)
		}
		tb.AddRow(n, admitted, rejected, fmt.Sprintf("%.2f", util), fmt.Sprintf("%.0f", mean))
	}
	return tb, nil
}

// E10SharedUplink puts several viewers behind one server uplink that cannot
// carry all of them at full quality: with grading, each session sheds one
// video level and the shared bottleneck clears for everyone — the paper's
// "less network traffic, thus more available bandwidth" acting across users.
func E10SharedUplink(seed uint64) (*stats.Table, error) {
	const viewers = 6
	tb := stats.NewTable("E10 — six viewers behind one 6.5 Mb/s server uplink",
		"grading", "degrades", "mean gap rate", "total plays", "uplink drops")
	for _, enabled := range []bool{false, true} {
		svc, err := hermes.NewSimulated(hermes.Config{
			Seed: seed,
			Servers: []hermes.ServerSpec{{
				Name: "srv",
				Lessons: []hermes.LessonSpec{{
					Name:   "av",
					Source: avDoc(30 * time.Second),
				}},
			}},
			ServerOptions: server.Options{
				Capacity:       100_000_000, // admission out of the way
				DisableGrading: !enabled,
			},
		})
		if err != nil {
			return nil, err
		}
		// The shared uplink: ~8 Mb/s offered vs 6.5 Mb/s available.
		svc.Net.SetEgressLimit("srv", 6_500_000, 400*time.Millisecond)
		var browsers []*client.Client
		for i := 0; i < viewers; i++ {
			user := fmt.Sprintf("u%d", i)
			svc.Enroll(user, "pw", qos.Standard)
			b := svc.NewBrowser(user, "pw", client.Options{
				FeedbackInterval: 500 * time.Millisecond,
			})
			browsers = append(browsers, b)
			b.Connect("srv")
		}
		svc.Run(time.Second)
		for _, b := range browsers {
			b.RequestDoc("av")
		}
		svc.Run(45 * time.Second)

		gapRate := 0.0
		plays := 0
		degrades := 0
		for _, b := range browsers {
			if p := b.Player(); p != nil {
				rep := p.Report()
				g, e := 0, 0
				for _, s := range rep.Streams {
					g += s.Gaps
					e += s.Expected
					plays += s.Plays
				}
				if e > 0 {
					gapRate += float64(g) / float64(e)
				}
			}
			mgr := svc.Servers["srv"].QoSManager(b.CtrlAddr())
			if mgr != nil {
				for _, a := range mgr.Actions() {
					if a.Kind == qos.ActDegrade || a.Kind == qos.ActCutoff {
						degrades++
					}
				}
			}
		}
		gapRate /= viewers
		drops := 0
		for i := range browsers {
			st := svc.Net.Stats("srv", fmt.Sprintf("pc-%d", i+1))
			drops += st.Dropped
		}
		tb.AddRow(onOff(enabled), degrades, fmt.Sprintf("%.3f", gapRate), plays, drops)
	}
	return tb, nil
}
