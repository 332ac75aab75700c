package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/hermes"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stats"
)

// E1TimeWindow sweeps the media time window against network jitter and
// measures how the window absorbs delay variation before it reaches the
// presentation (playout gaps / intra-media deadline misses).
func E1TimeWindow(seed uint64, quick bool) (*stats.Table, error) {
	// The buffers calibrate to the jitter present at setup time (the
	// deliberate initial delay waits for the window to fill), so the
	// window's protective value shows when delay variation RISES
	// mid-session: the sweep applies a jitter surge from t=5s onwards and
	// varies the window that must absorb it.
	windows := []time.Duration{80 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, 1000 * time.Millisecond, 2000 * time.Millisecond}
	surges := []time.Duration{0, 150 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if quick {
		windows = windows[1:3]
		surges = surges[1:3]
	}
	tb := stats.NewTable("E1 — media time window vs mid-session jitter surge (20s AV scenario)",
		"window", "jitter surge", "gaps", "miss rate", "startup")
	doc := avDoc(20 * time.Second)
	for _, w := range windows {
		for _, j := range surges {
			cfg := core.PlayConfig{
				DocSource: doc,
				Seed:      seed,
				Link: netsim.LinkConfig{Bandwidth: 8_000_000,
					Delay: 20 * time.Millisecond, Jitter: 20 * time.Millisecond},
			}
			if j > 0 {
				cfg.Phases = []netsim.Phase{{Start: 5 * time.Second,
					Duration: 15 * time.Second, ExtraJitter: j}}
			}
			cfg.Client.Window = w
			cfg.Client.MaxInitialDelay = w*3 + time.Second
			res, err := core.Play(cfg)
			if err != nil {
				return nil, fmt.Errorf("E1 w=%v j=%v: %w", w, j, err)
			}
			missRate := 0.0
			if exp := res.Expected(); exp > 0 {
				missRate = float64(res.Gaps()) / float64(exp)
			}
			tb.AddRow(w, j, res.Gaps(), fmt.Sprintf("%.3f", missRate), res.Startup)
		}
	}
	return tb, nil
}

// E2SkewControl compares the short-term drop/duplicate skew control on and
// off while congestion disturbs the synchronized audio+video group.
func E2SkewControl(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E2 — short-term intermedia skew control (drop leader / duplicate laggard)",
		"skew control", "skew mean (ms)", "skew p95 (ms)", "skew max (ms)", "drops", "holds", "gaps")
	for _, enabled := range []bool{false, true} {
		cfg := core.PlayConfig{
			DocSource: avDoc(30 * time.Second),
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 4_000_000,
				Delay: 20 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.005},
			// A long jitter surge: multi-fragment video frames complete
			// only when their LAST fragment arrives, so large per-packet
			// jitter delays video far more than single-packet audio —
			// sustained asymmetric lateness, i.e. intermedia skew.
			Phases: []netsim.Phase{{Start: 6 * time.Second, Duration: 16 * time.Second,
				ExtraJitter: 600 * time.Millisecond}},
		}
		cfg.Client.Playout.EnableSkewControl = enabled
		cfg.Client.Playout.EnableWatermarkControl = enabled
		cfg.Server.DisableGrading = true // isolate the short-term mechanism
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("E2 enabled=%v: %w", enabled, err)
		}
		var sk *stats.Sample
		for _, s := range res.Skew {
			sk = s
		}
		if sk == nil {
			return nil, fmt.Errorf("E2: no skew sample")
		}
		drops, holds := 0, 0
		for _, s := range res.Playout.Streams {
			drops += s.Drops
			holds += s.Holds
		}
		label := "off"
		if enabled {
			label = "on"
		}
		tb.AddRow(label, sk.Mean(), sk.Percentile(95), sk.Max(), drops, holds, res.Gaps())
	}
	return tb, nil
}

// E3Grading compares the long-term feedback-driven quality grading on and
// off across a scripted congestion episode: loss seen by the receiver,
// delivered quality level over time, and the degradation order (video before
// audio).
func E3Grading(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E3 — long-term QoS grading under congestion (30s AV scenario)",
		"grading", "net loss", "gaps", "degrades", "first degrade", "mean video level", "restored")
	for _, enabled := range []bool{false, true} {
		cfg := core.PlayConfig{
			DocSource: avDoc(30 * time.Second),
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 2_500_000,
				Delay: 30 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.002},
			// A bandwidth bottleneck: the full-quality AV mix (~1.6 Mb/s)
			// no longer fits, so queue drops mount until the grading
			// mechanism sheds rate.
			Phases: []netsim.Phase{{Start: 5 * time.Second, Duration: 14 * time.Second,
				BandwidthFactor: 0.45}},
		}
		cfg.Server.DisableGrading = !enabled
		cfg.Client.FeedbackInterval = 500 * time.Millisecond
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("E3 enabled=%v: %w", enabled, err)
		}
		first := "-"
		degrades := 0
		restored := 0
		for _, a := range res.Actions {
			switch a.Kind {
			case qos.ActDegrade, qos.ActCutoff:
				if degrades == 0 {
					first = a.StreamID
				}
				degrades++
			case qos.ActUpgrade, qos.ActRestore:
				restored++
			}
		}
		meanLevel := 0.0
		if s := res.LevelSeries["v"]; s != nil {
			meanLevel = s.TimeWeightedMean(40 * time.Second)
		}
		label := "off"
		if enabled {
			label = "on"
		}
		tb.AddRow(label, fmt.Sprintf("%.3f", res.Net.LossRate()), res.Gaps(),
			degrades, first, meanLevel, restored)
	}
	return tb, nil
}

// E4Combined evaluates the four {short-term, long-term}² configurations on
// the Figure 2 scenario under congestion — the headline claim that the two
// mechanisms together preserve a coherent presentation.
func E4Combined(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E4 — combined mechanisms: presentation quality under congestion",
		"buffer/skew ctl", "qos grading", "quality score", "gaps", "skew p95 (ms)", "net loss")
	doc := avDoc(30 * time.Second)
	for _, short := range []bool{false, true} {
		for _, long := range []bool{false, true} {
			cfg := core.PlayConfig{
				DocSource: doc,
				Seed:      seed,
				Link: netsim.LinkConfig{Bandwidth: 2_500_000,
					Delay: 30 * time.Millisecond, Jitter: 40 * time.Millisecond, Loss: 0.005},
				Phases: []netsim.Phase{{Start: 6 * time.Second, Duration: 12 * time.Second,
					BandwidthFactor: 0.45, ExtraJitter: 60 * time.Millisecond}},
			}
			cfg.Client.Playout.EnableSkewControl = short
			cfg.Client.Playout.EnableWatermarkControl = short
			cfg.Server.DisableGrading = !long
			cfg.Client.FeedbackInterval = 500 * time.Millisecond
			res, err := core.Play(cfg)
			if err != nil {
				return nil, fmt.Errorf("E4 %v/%v: %w", short, long, err)
			}
			skewP95 := 0.0
			for _, s := range res.Skew {
				if v := s.Percentile(95); v > skewP95 {
					skewP95 = v
				}
			}
			tb.AddRow(onOff(short), onOff(long),
				fmt.Sprintf("%.3f", res.QualityScore()), res.Gaps(),
				skewP95, fmt.Sprintf("%.3f", res.Net.LossRate()))
		}
	}
	return tb, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// E5Admission sweeps offered load across mixed pricing classes and reports
// per-class admission outcomes, reproducing the rule that "a user who pays
// more should be serviced, even though it affects the other users".
func E5Admission(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E5 — connection admission by offered load and pricing class",
		"offered load", "class", "admitted", "degraded", "rejected", "squeezes")
	rng := stats.NewRNG(seed)
	for _, load := range []float64{0.5, 1.0, 1.5, 2.0} {
		adm := qos.NewAdmission(100_000_000) // 100 Mb/s server
		classes := []qos.PricingClass{qos.Economy, qos.Standard, qos.Premium}
		// Each connection asks ~2 Mb/s; request until offered = load×capacity.
		offered := 0.0
		squeezes := 0
		for offered < load*100_000_000 {
			class := classes[rng.Intn(3)]
			peak := rng.Uniform(1_000_000, 3_000_000)
			dec := adm.Request(qos.ConnRequest{
				User: "u", Class: class, PeakRate: peak, MinRate: peak / 4,
			})
			squeezes += len(dec.Squeezed)
			offered += peak
		}
		for _, c := range classes {
			a, d, r := adm.Counts(c)
			tb.AddRow(fmt.Sprintf("%.1f×", load), c.String(), a, d, r, squeezes)
		}
	}
	return tb, nil
}

// E6Startup sweeps the media time window and reports the startup-latency vs
// smoothness trade-off: the deliberate initial delay is the price paid for
// gap-free playout.
func E6Startup(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E6 — startup delay vs playout smoothness (window sweep, 150ms jitter)",
		"window", "startup", "gaps", "quality score")
	doc := avDoc(15 * time.Second)
	for _, w := range []time.Duration{40 * time.Millisecond, 150 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond} {
		cfg := core.PlayConfig{
			DocSource: doc,
			Seed:      seed,
			Link: netsim.LinkConfig{Bandwidth: 8_000_000,
				Delay: 25 * time.Millisecond, Jitter: 150 * time.Millisecond},
		}
		cfg.Client.Window = w
		cfg.Client.MaxInitialDelay = w*3 + time.Second
		res, err := core.Play(cfg)
		if err != nil {
			return nil, fmt.Errorf("E6 w=%v: %w", w, err)
		}
		tb.AddRow(w, res.Startup, res.Gaps(), fmt.Sprintf("%.3f", res.QualityScore()))
	}
	return tb, nil
}

// E7Suspend measures cross-server navigation: returning to a suspended
// connection inside the grace period preserves the session and skips
// re-admission; returning after expiry requires a full reconnection.
func E7Suspend(seed uint64) (*stats.Table, error) {
	tb := stats.NewTable("E7 — suspended-connection grace period",
		"return after", "grace", "session kept", "re-admissions", "outcome state")
	for _, c := range []struct {
		wait, grace time.Duration
	}{
		{5 * time.Second, 20 * time.Second},
		{40 * time.Second, 20 * time.Second},
	} {
		svc, err := hermes.NewSimulated(hermes.Config{
			Seed: seed,
			Servers: []hermes.ServerSpec{
				{Name: "srv-a", Lessons: hermes.MakeCourse("a", 1, 1, 5*time.Second)},
				{Name: "srv-b", Lessons: hermes.MakeCourse("b", 1, 1, 5*time.Second)},
			},
			ServerOptions: server.Options{Grace: c.grace},
		})
		if err != nil {
			return nil, err
		}
		svc.Enroll("u", "pw", qos.Standard)
		b := svc.NewBrowser("u", "pw", client.Options{})
		b.Connect("srv-a")
		svc.Run(time.Second)
		b.RequestDoc("a-L1")
		svc.Run(2 * time.Second)
		b.FollowLink(scenario.Link{Target: "b-L1", Host: "srv-b"})
		svc.Run(c.wait)
		admBefore, _, _ := svc.Servers["srv-a"].Admission().Counts(qos.Standard)
		kept := svc.Servers["srv-a"].Sessions() == 1
		// Within the grace the connect presents the resume token; after it
		// the session is gone and the connect is a fresh admission.
		b.Connect("srv-a")
		svc.Run(2 * time.Second)
		admAfter, _, _ := svc.Servers["srv-a"].Admission().Counts(qos.Standard)
		tb.AddRow(c.wait, c.grace, kept, admAfter-admBefore, b.State("srv-a").String())
	}
	return tb, nil
}

// E8Search measures federated search latency and correctness against the
// number of Hermes servers.
func E8Search(seed uint64, quick bool) (*stats.Table, error) {
	counts := []int{1, 2, 4, 8}
	if quick {
		counts = []int{1, 4}
	}
	tb := stats.NewTable("E8 — federated search across servers",
		"servers", "lessons", "hits", "latency")
	for _, n := range counts {
		var specs []hermes.ServerSpec
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("course%d", i)
			specs = append(specs, hermes.ServerSpec{
				Name:    fmt.Sprintf("srv-%d", i),
				Lessons: hermes.MakeCourse(name, 3, 1, 5*time.Second),
			})
		}
		svc, err := hermes.NewSimulated(hermes.Config{Seed: seed, Servers: specs})
		if err != nil {
			return nil, err
		}
		svc.Enroll("u", "pw", qos.Standard)
		b := svc.NewBrowser("u", "pw", client.Options{})
		b.Connect("srv-0")
		svc.Run(time.Second)
		start := svc.Clk.Now()
		b.Search("unit 2") // every course's unit 2 matches by title
		var latency time.Duration
		for i := 0; i < 100; i++ {
			svc.Run(50 * time.Millisecond)
			if _, done := b.SearchResults(); done {
				latency = svc.Clk.Now().Sub(start)
				break
			}
		}
		hits, done := b.SearchResults()
		if !done {
			return nil, fmt.Errorf("E8 n=%d: search never completed", n)
		}
		if len(hits) != n {
			return nil, fmt.Errorf("E8 n=%d: hits=%d", n, len(hits))
		}
		tb.AddRow(n, 3*n, len(hits), latency)
	}
	return tb, nil
}
