package experiments

import (
	"fmt"

	"repro/internal/server"
	"repro/internal/stats"
)

// ControlPlaneReport is the BENCH_controlplane.json artifact: one run per
// resident-session count, smallest first.
type ControlPlaneReport []server.ControlPlaneResult

// check holds every BENCH_controlplane.json gate; ControlPlane ends in it
// and bench-verify runs it on the committed file. (The harness itself fails
// a run whose live server state breaks a storm invariant — sessions, dedup
// rings, per-client replies, heartbeat acks; this reads only the artifact.)
func (rep ControlPlaneReport) check() error {
	if len(rep) == 0 {
		return fmt.Errorf("no runs")
	}
	for _, r := range rep {
		if r.Sessions <= 0 || r.ConnectsPerSec <= 0 || r.HeartbeatsPerSec <= 0 || r.SweepTicks <= 0 {
			return fmt.Errorf("sessions=%d run missing core fields", r.Sessions)
		}
		if r.AdmissionDecisions != int64(r.Sessions) {
			return fmt.Errorf("sessions=%d shows %d admission decisions; duplicates leaked past dedup",
				r.Sessions, r.AdmissionDecisions)
		}
		if r.HandleP99 <= 0 || r.HandleMax <= 0 {
			return fmt.Errorf("sessions=%d missing handle percentile fields", r.Sessions)
		}
	}
	// The timer-wheel sublinearity gate: across a 100× growth in resident
	// sessions the sweep tick must not grow even 20× (the old full-map sweep
	// grew ~100×). A floor absorbs scheduler noise at the microsecond scale.
	first, last := rep[0], rep[len(rep)-1]
	if last.Sessions > first.Sessions {
		floor := first.SweepTickMicros
		if floor < 25 {
			floor = 25
		}
		if last.SweepTickMicros > 20*floor {
			return fmt.Errorf("sweep tick grew from %.1fµs (%d sessions) to %.1fµs (%d sessions); not sublinear",
				first.SweepTickMicros, first.Sessions, last.SweepTickMicros, last.Sessions)
		}
	}
	return nil
}

// ControlPlane runs the server control-plane load harness at each resident
// session count and tabulates connect-storm throughput, heartbeat
// throughput and the liveness sweep's per-tick cost. The results back
// BENCH_controlplane.json; its headline gate is the timer-wheel claim that
// the per-tick sweep cost stays roughly flat — measurably sublinear — as
// resident sessions grow.
func ControlPlane(sessions []int) (*stats.Table, ControlPlaneReport, error) {
	if len(sessions) == 0 {
		sessions = []int{1_000, 10_000, 100_000}
	}
	tb := stats.NewTable("BENCH — control plane: sharded sessions, dedup storms, timer-wheel sweeps",
		"sessions", "dup", "connects/s", "ctrl reqs/s", "heartbeats/s",
		"sweep µs/tick", "handle p99 µs", "lock wait p99 µs", "dedup rings", "lock held µs")
	var rep ControlPlaneReport
	for _, n := range sessions {
		res, err := server.RunControlPlaneLoad(server.ControlPlaneConfig{
			Sessions:  n,
			DupFactor: 3,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("controlplane sessions=%d: %w", n, err)
		}
		tb.AddRow(res.Sessions, res.DupFactor,
			fmt.Sprintf("%.0f", res.ConnectsPerSec),
			fmt.Sprintf("%.0f", res.CtrlReqsPerSec),
			fmt.Sprintf("%.0f", res.HeartbeatsPerSec),
			fmt.Sprintf("%.1f", res.SweepTickMicros),
			fmt.Sprintf("%.1f", res.HandleP99),
			fmt.Sprintf("%.1f", res.LockWaitP99),
			res.DedupRings,
			res.LockHeldMicros)
		rep = append(rep, res)
	}
	if err := rep.check(); err != nil {
		return nil, nil, fmt.Errorf("controlplane: %w", err)
	}
	return tb, rep, nil
}
