package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// This file is the control-plane load harness, the sibling of
// RunDataPlaneLoad: it stands up one server and measures the session
// bookkeeping paths under scale in three phases. The connect storm drives
// cfg.Sessions fresh connects — each transmitted cfg.DupFactor times with
// the same request ID, the worst case the reliable client produces under
// loss — from cfg.Workers goroutines, and verifies the dedup layer absorbed
// every duplicate: one ring and exactly one admission decision per client,
// no reply lost. The heartbeat phase beats every session once, populating
// the liveness wheels. The sweep phase advances the virtual clock through
// cfg.SweepTicks liveness ticks with every session resident but none due,
// measuring the per-tick cost of the periodic work — the number that must
// stay flat as resident sessions grow.

// ControlPlaneConfig sizes one load run.
type ControlPlaneConfig struct {
	// Sessions is the number of distinct storm clients (= resident
	// sessions after the storm).
	Sessions int
	// DupFactor is how many times each client transmits its connect
	// request (≥ 1; duplicates carry the same request ID).
	DupFactor int
	// Workers is the number of concurrent storm goroutines.
	Workers int
	// SweepTicks is how many liveness sweep ticks the sweep phase spans.
	SweepTicks int
}

func (c *ControlPlaneConfig) fill() {
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.DupFactor <= 0 {
		c.DupFactor = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SweepTicks <= 0 {
		c.SweepTicks = 32
	}
}

// ControlPlaneResult is one load run's measurement.
type ControlPlaneResult struct {
	Sessions  int
	DupFactor int
	Workers   int

	// Connect storm: fresh session establishment under duplicate fire.
	ConnectsPerSec     float64
	CtrlReqsPerSec     float64 // includes duplicates
	AdmissionDecisions int64
	DedupRings         int

	// Heartbeat phase: one beat per session, wheel scheduling included.
	HeartbeatsPerSec float64

	// Sweep phase: mean wall cost of one liveness sweep tick with every
	// session resident and none due. The timer-wheel claim is that this
	// stays flat as sessions grow; the old full-map sweep scanned every
	// resident session per tick.
	SweepTicks      int
	SweepTickMicros float64

	// Whole-run control-plane lock pressure (write side, all shards).
	LockAcqsTotal  int64
	LockHeldMicros int64

	// Control-span distributions (µs): per-request handler service time,
	// shard lock wait (merged across shards), and liveness sweep tick cost.
	HandleP50    float64
	HandleP95    float64
	HandleP99    float64
	HandleMax    float64
	LockWaitP99  float64
	LockWaitMax  float64
	SweepTickP99 float64
}

// RunControlPlaneLoad runs the three phases described above and validates
// the storm invariants before reporting throughput.
func RunControlPlaneLoad(cfg ControlPlaneConfig) (ControlPlaneResult, error) {
	cfg.fill()
	var res ControlPlaneResult
	res.Sessions = cfg.Sessions
	res.DupFactor = cfg.DupFactor
	res.Workers = cfg.Workers
	res.SweepTicks = cfg.SweepTicks

	clk := clock.NewSim()
	net := newSinkNet()
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "bench", Password: "pw", Email: "bench@load", Class: qos.Standard,
	}, clk.Now()); err != nil {
		return res, err
	}
	scope := obs.NewScope(clk)
	srv, err := New("srv", clk, net, users, NewDatabase(), Options{
		Capacity:       1e12, // admission must not cap the fleet
		Grace:          time.Hour,
		HeartbeatEvery: time.Second,
		Obs:            scope,
		// Keep every session's liveness deadline beyond the sweep phase so
		// the measured ticks see full wheels with nothing due.
		LivenessMisses: cfg.SweepTicks + 60,
	})
	if err != nil {
		return res, err
	}

	// Each storm client listens on its own address and counts the replies
	// it receives, so "no reply lost" is checked end-to-end.
	addrs := make([]netsim.Addr, cfg.Sessions)
	connectReplies := make([]atomic.Int32, cfg.Sessions)
	var hbAcks atomic.Int64
	for i := range addrs {
		addrs[i] = netsim.MakeAddr(fmt.Sprintf("load%d", i), 6000)
		i := i
		if err := net.Listen(addrs[i], func(p netsim.Packet) {
			mt, _, _, err := protocol.DecodeReq(p.Payload)
			if err != nil {
				return
			}
			switch mt {
			case protocol.MsgConnectResult:
				connectReplies[i].Add(1)
			case protocol.MsgHeartbeatAck:
				hbAcks.Add(1)
			}
		}); err != nil {
			return res, err
		}
	}
	ctrl := netsim.MakeAddr("srv", ControlPort)

	// fanOut sends one frame per client from cfg.Workers goroutines,
	// repeated dups times back-to-back (retransmissions of one request
	// are sequential in the real client).
	fanOut := func(frame []byte, dups int) time.Duration {
		var wg sync.WaitGroup
		per := (cfg.Sessions + cfg.Workers - 1) / cfg.Workers
		t0 := time.Now()
		for w := 0; w < cfg.Workers; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > cfg.Sessions {
				hi = cfg.Sessions
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					for d := 0; d < dups; d++ {
						net.Send(netsim.Packet{
							From: addrs[i], To: ctrl, Payload: frame, Reliable: true,
						})
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		return time.Since(t0)
	}

	// Phase 1: the connect storm. One frame serves every client — request
	// IDs are scoped per client address.
	connectFrame := protocol.MustEncodeReq(protocol.MsgConnect, 1,
		protocol.Connect{User: "bench", Password: "pw"})
	elapsed := fanOut(connectFrame, cfg.DupFactor)
	if elapsed > 0 {
		res.ConnectsPerSec = float64(cfg.Sessions) / elapsed.Seconds()
		res.CtrlReqsPerSec = float64(cfg.Sessions*cfg.DupFactor) / elapsed.Seconds()
	}

	// Storm invariants.
	if got := srv.Sessions(); got != cfg.Sessions {
		return res, fmt.Errorf("controlplane: %d sessions after storm, want %d", got, cfg.Sessions)
	}
	res.AdmissionDecisions = srv.Admission().Decisions()
	if res.AdmissionDecisions != int64(cfg.Sessions) {
		return res, fmt.Errorf("controlplane: %d admission decisions for %d clients; duplicates leaked past dedup",
			res.AdmissionDecisions, cfg.Sessions)
	}
	res.DedupRings = srv.dedupLen()
	if res.DedupRings > cfg.Sessions {
		return res, fmt.Errorf("controlplane: %d dedup rings for %d clients, want ≤ 1 per client",
			res.DedupRings, cfg.Sessions)
	}
	for i := range connectReplies {
		if got := int(connectReplies[i].Load()); got != cfg.DupFactor {
			return res, fmt.Errorf("controlplane: client %d got %d ConnectResults, want %d (one per transmission)",
				i, got, cfg.DupFactor)
		}
	}

	// Phase 2: one heartbeat per session; every session lands on its
	// shard's liveness wheel.
	hbFrame := protocol.MustEncode(protocol.MsgHeartbeat, protocol.Heartbeat{})
	elapsed = fanOut(hbFrame, 1)
	if elapsed > 0 {
		res.HeartbeatsPerSec = float64(cfg.Sessions) / elapsed.Seconds()
	}
	if got := hbAcks.Load(); got != int64(cfg.Sessions) {
		return res, fmt.Errorf("controlplane: %d heartbeat acks, want %d", got, cfg.Sessions)
	}

	// Phase 3: sweep cost. Advance the virtual clock through SweepTicks
	// liveness ticks; every session is resident but none is due, so the
	// wall time here is the periodic bookkeeping overhead itself.
	t0 := time.Now()
	clk.RunFor(time.Duration(cfg.SweepTicks) * time.Second)
	sweepElapsed := time.Since(t0)
	res.SweepTickMicros = float64(sweepElapsed.Microseconds()) / float64(cfg.SweepTicks)

	if got := srv.Sessions(); got != cfg.Sessions {
		return res, fmt.Errorf("controlplane: %d sessions after sweep phase, want %d (sweep suspended live sessions)",
			got, cfg.Sessions)
	}

	acqs, held := srv.LockStats()
	res.LockAcqsTotal = acqs
	res.LockHeldMicros = held.Microseconds()

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res.HandleP50 = us(srv.hHandle.P50())
	res.HandleP95 = us(srv.hHandle.P95())
	res.HandleP99 = us(srv.hHandle.P99())
	res.HandleMax = us(srv.hHandle.Max())
	if lw := srv.LockWaitHist(); lw != nil {
		res.LockWaitP99 = us(lw.P99())
		res.LockWaitMax = us(lw.Max())
	}
	res.SweepTickP99 = us(srv.hLiveTick.P99())
	return res, nil
}
