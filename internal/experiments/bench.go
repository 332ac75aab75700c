package experiments

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/stats"
)

// DataPlaneReport is the JSON shape of BENCH_dataplane.json: the per-scale
// load runs plus the span-overhead pair, which prices the sampled frame-span
// instrumentation by comparing pump throughput with telemetry on against
// telemetry off.
type DataPlaneReport struct {
	Runs []server.DataPlaneResult `json:"runs"`
	// SpanOverheadPct is the frames/s cost of the default telemetry scope
	// (spans sampled 1-in-8) relative to a scope-less run, best-of-3 each.
	// Gated ≤ spanOverheadGatePct here and again by VerifyBenchFiles.
	SpanOverheadPct  float64 `json:"span_overhead_pct"`
	FramesPerSecObs  float64 `json:"frames_per_sec_obs"`
	FramesPerSecNoop float64 `json:"frames_per_sec_noobs"`
	// Fanout is the shared-flow headline: the same hot document at 1 and
	// at N viewers with shared flows on. Encodes must stay flat while
	// deliveries scale with the viewer count.
	Fanout *FanoutSummary `json:"fanout"`
}

// FanoutSummary is the one-encode-N-deliveries headline pair, measured over
// the deterministic paced (virtual-clock) window so the numbers are exactly
// reproducible.
type FanoutSummary struct {
	ViewersLow         int     `json:"viewers_low"`
	ViewersHigh        int     `json:"viewers_high"`
	EncodesLow         int64   `json:"encodes_low"`
	EncodesHigh        int64   `json:"encodes_high"`
	DeliveredHigh      int64   `json:"delivered_high"`
	AmplificationX     float64 `json:"amplification_x"` // delivered/encodes at the high viewer count
	AllocsPerDelivered float64 `json:"allocs_per_delivered"`
}

// spanOverheadGatePct is the acceptance ceiling on the span instrumentation's
// throughput cost.
const spanOverheadGatePct = 5.0

// Shared-flow fan-out gates: at the high viewer count the paced window may
// encode at most fanoutEncodeFlatX times the single-viewer run's frames
// (they are deterministically equal in practice; the headroom absorbs any
// future pacing change), must deliver at least fanoutScaleFrac of the ideal
// viewers×encodes fan-out, and may allocate at most fanoutAllocsGate objects
// per delivered frame.
const (
	fanoutEncodeFlatX = 1.05
	fanoutScaleFrac   = 0.9
	fanoutAllocsGate  = 0.05
)

// check holds every BENCH_dataplane.json gate; DataPlane ends in it and
// bench-verify runs it on the committed file.
func (rep DataPlaneReport) check() error {
	if len(rep.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	for _, r := range rep.Runs {
		// Three rows share sessions=64; name the fan-out ones like the table does.
		row := fmt.Sprintf("sessions=%d", r.Sessions)
		if r.SharedFlows {
			row += fmt.Sprintf(" (fanout d=%d)", r.Docs)
		}
		if r.Sessions <= 0 || r.Senders <= 0 || r.PumpFrames <= 0 || r.FramesPerSec <= 0 {
			return fmt.Errorf("%s run missing core fields", row)
		}
		if r.PacedLockAcqs != 0 {
			return fmt.Errorf("%s shows %d paced shard-lock acquisitions, want 0",
				row, r.PacedLockAcqs)
		}
		if r.PacedAllocsPerFrame > 1 {
			return fmt.Errorf("%s paced phase allocates %.2f objects/frame, want ≤ 1",
				row, r.PacedAllocsPerFrame)
		}
		if r.SpanSampleEvery <= 0 || r.SpanFrames <= 0 {
			return fmt.Errorf("%s has no frame-span samples (span_sample_every=%d span_frames=%d)",
				row, r.SpanSampleEvery, r.SpanFrames)
		}
		if r.EmitToWireP95 <= 0 || r.EmitToWireP99 <= 0 || r.EmitToWireMax <= 0 {
			return fmt.Errorf("%s missing emit_to_wire percentile fields", row)
		}
		if !r.SharedFlows {
			continue
		}
		if r.Flows <= 0 || r.MaxFlowSubscribers <= 0 {
			return fmt.Errorf("%s shared-flow run stood up no flows (flows=%d max_subs=%d)",
				row, r.Flows, r.MaxFlowSubscribers)
		}
		if r.PacedEncodes <= 0 || r.PacedDelivered < r.PacedEncodes {
			return fmt.Errorf("%s shared-flow run missing encode/delivery split (encodes=%d delivered=%d)",
				row, r.PacedEncodes, r.PacedDelivered)
		}
		if r.Docs == 1 && r.MaxFlowSubscribers != r.Sessions {
			return fmt.Errorf("%s hot flow carries %d subscribers; every viewer of the one document must ride it",
				row, r.MaxFlowSubscribers)
		}
	}
	if rep.FramesPerSecObs <= 0 || rep.FramesPerSecNoop <= 0 {
		return fmt.Errorf("missing span overhead pair fields")
	}
	if rep.SpanOverheadPct > spanOverheadGatePct {
		return fmt.Errorf("span_overhead_pct %.1f exceeds the %.0f%% gate (%.0f → %.0f frames/s)",
			rep.SpanOverheadPct, spanOverheadGatePct, rep.FramesPerSecNoop, rep.FramesPerSecObs)
	}
	// The fan-out headline: encodes flat across the viewer sweep, deliveries
	// scaling with viewers, amortized-zero allocations per delivered frame.
	f := rep.Fanout
	if f == nil {
		return fmt.Errorf("missing fanout summary (regenerate with make bench-dataplane)")
	}
	if f.ViewersHigh <= f.ViewersLow || f.EncodesLow <= 0 || f.EncodesHigh <= 0 {
		return fmt.Errorf("fanout summary missing core fields")
	}
	if float64(f.EncodesHigh) > fanoutEncodeFlatX*float64(f.EncodesLow) {
		return fmt.Errorf("fanout encodes grew %d → %d across %d → %d viewers; not flat",
			f.EncodesLow, f.EncodesHigh, f.ViewersLow, f.ViewersHigh)
	}
	if float64(f.DeliveredHigh) < fanoutScaleFrac*float64(f.ViewersHigh)*float64(f.EncodesHigh) {
		return fmt.Errorf("fanout delivered %d frames for %d encodes at %d viewers; does not scale",
			f.DeliveredHigh, f.EncodesHigh, f.ViewersHigh)
	}
	if f.AllocsPerDelivered > fanoutAllocsGate {
		return fmt.Errorf("fanout allocs_per_delivered %.3f exceeds the %.2f gate",
			f.AllocsPerDelivered, fanoutAllocsGate)
	}
	return nil
}

// DataPlane runs the server data-plane load harness at each session count
// and tabulates throughput, emit-latency tail, global-lock pressure, the
// allocation footprint of both phases, and the emit→wire span percentiles.
// The results back BENCH_dataplane.json: frames/s must grow (or hold) with
// session count, the paced phase must show zero shard-lock acquisitions, the
// pooled emit path must hold the paced allocation rate at (amortized) ≤ 1
// object per frame, and the span sampling must cost ≤ 5% throughput.
func DataPlane(sessions []int) (*stats.Table, *DataPlaneReport, error) {
	if len(sessions) == 0 {
		sessions = []int{1, 8, 64}
	}
	tb := stats.NewTable("BENCH — media data plane: parallel zero-alloc emit off the global lock",
		"sessions", "senders", "paced lock acqs", "frames/s", "emit p50 µs", "emit p95 µs",
		"e2w p95 µs", "e2w p99 µs", "paced allocs/frame", "pump allocs/frame", "lock held µs")
	rep := &DataPlaneReport{}
	for _, n := range sessions {
		res, err := server.RunDataPlaneLoad(server.DataPlaneConfig{
			Sessions:        n,
			FramesPerSender: 200,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("dataplane sessions=%d: %w", n, err)
		}
		tb.AddRow(res.Sessions, res.Senders, res.PacedLockAcqs,
			fmt.Sprintf("%.0f", res.FramesPerSec),
			fmt.Sprintf("%.1f", res.EmitP50Micros),
			fmt.Sprintf("%.1f", res.EmitP95Micros),
			fmt.Sprintf("%.1f", res.EmitToWireP95),
			fmt.Sprintf("%.1f", res.EmitToWireP99),
			fmt.Sprintf("%.3f", res.PacedAllocsPerFrame),
			fmt.Sprintf("%.3f", res.PumpAllocsPerFrame),
			res.LockHeldMicros)
		rep.Runs = append(rep.Runs, res)
	}

	// Shared-flow fan-out: the same hot document at 1 viewer and at 64
	// viewers with shared flows on. The paced (virtual-clock) window is
	// deterministic, so the flatness and scaling gates compare exact frame
	// counts, not wall-clock rates.
	fanout := func(sessions, docs int, zipfS float64) (server.DataPlaneResult, error) {
		res, err := server.RunDataPlaneLoad(server.DataPlaneConfig{
			Sessions:        sessions,
			FramesPerSender: 200,
			SharedFlows:     true,
			Docs:            docs,
			ZipfS:           zipfS,
		})
		if err != nil {
			return res, fmt.Errorf("dataplane fanout sessions=%d docs=%d: %w", sessions, docs, err)
		}
		tb.AddRow(fmt.Sprintf("%d (fanout d=%d)", res.Sessions, res.Docs),
			fmt.Sprintf("%d fl=%d", res.Senders, res.Flows), res.PacedLockAcqs,
			fmt.Sprintf("%.0f dlv", res.DeliveredPerSec),
			fmt.Sprintf("%.1f", res.EmitP50Micros),
			fmt.Sprintf("%.1f", res.EmitP95Micros),
			fmt.Sprintf("%.1f", res.EmitToWireP95),
			fmt.Sprintf("%.1f", res.EmitToWireP99),
			fmt.Sprintf("%.3f", res.PacedAllocsPerFrame),
			fmt.Sprintf("%.3f", res.PumpAllocsPerFrame),
			res.LockHeldMicros)
		rep.Runs = append(rep.Runs, res)
		return res, nil
	}
	fan1, err := fanout(1, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	fan64, err := fanout(64, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	rep.Fanout = &FanoutSummary{
		ViewersLow:         fan1.Sessions,
		ViewersHigh:        fan64.Sessions,
		EncodesLow:         fan1.PacedEncodes,
		EncodesHigh:        fan64.PacedEncodes,
		DeliveredHigh:      fan64.PacedDelivered,
		AmplificationX:     float64(fan64.PacedDelivered) / float64(fan64.PacedEncodes),
		AllocsPerDelivered: fan64.PacedAllocsPerFrame,
	}
	// Zipf demand demo: 64 viewers spread over 8 documents with s=1.1 —
	// the popular head shares flows, the tail plays privately. Reported,
	// and held to the per-row gates only.
	if _, err := fanout(64, 8, 1.1); err != nil {
		return nil, nil, err
	}

	// Overhead pair: best-of-3 pump throughput with the default scope (spans
	// sampled) against telemetry off, at a fixed mid scale. Best-of-N rather
	// than mean keeps scheduler noise from masquerading as span cost.
	best := func(disable bool) (float64, error) {
		var top float64
		for i := 0; i < 3; i++ {
			res, err := server.RunDataPlaneLoad(server.DataPlaneConfig{
				Sessions: 8, FramesPerSender: 500, DisableObs: disable,
			})
			if err != nil {
				return 0, err
			}
			if res.FramesPerSec > top {
				top = res.FramesPerSec
			}
		}
		return top, nil
	}
	if rep.FramesPerSecObs, err = best(false); err != nil {
		return nil, nil, fmt.Errorf("dataplane overhead pair (obs on): %w", err)
	}
	if rep.FramesPerSecNoop, err = best(true); err != nil {
		return nil, nil, fmt.Errorf("dataplane overhead pair (obs off): %w", err)
	}
	rep.SpanOverheadPct = (rep.FramesPerSecNoop - rep.FramesPerSecObs) / rep.FramesPerSecNoop * 100
	tb.AddRow("overhead", "", "", fmt.Sprintf("%.0f vs %.0f", rep.FramesPerSecObs, rep.FramesPerSecNoop),
		"", "", "", "", "", "", fmt.Sprintf("%.1f%% span cost", rep.SpanOverheadPct))
	if err := rep.check(); err != nil {
		return nil, nil, fmt.Errorf("dataplane: %w", err)
	}
	return tb, rep, nil
}
