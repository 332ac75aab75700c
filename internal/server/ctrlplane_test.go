package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// BenchmarkControlPlane measures session establishment under duplicate-fire
// connect storms, heartbeat throughput, and the per-tick liveness sweep cost
// at growing resident-session counts. The sweep metric is the tentpole
// claim: with the timer wheel it should stay flat as sessions grow, where
// the old full-map sweep scanned every resident session per tick.
func BenchmarkControlPlane(b *testing.B) {
	for _, sessions := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunControlPlaneLoad(ControlPlaneConfig{
					Sessions:  sessions,
					DupFactor: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ConnectsPerSec, "connects/s")
				b.ReportMetric(res.HeartbeatsPerSec, "heartbeats/s")
				b.ReportMetric(res.SweepTickMicros, "sweep-µs/tick")
				b.ReportMetric(float64(res.LockAcqsTotal), "lock-acqs")
				b.ReportMetric(res.HandleMax, "handle-max-µs")
				b.ReportMetric(res.LockWaitMax, "lockwait-max-µs")
			}
		})
	}
}

// TestConnectStormInvariants is the connect-storm regression test: N
// clients each firing the same connect request DupFactor times must end as
// exactly N sessions with exactly N admission decisions, at most one dedup
// ring per client, and no transmission left unanswered. RunControlPlaneLoad
// checks each invariant internally and errors on violation, so pre-dedup
// regressions (duplicate admissions, lost replies) fail here.
func TestConnectStormInvariants(t *testing.T) {
	res, err := RunControlPlaneLoad(ControlPlaneConfig{
		Sessions:   96,
		DupFactor:  4,
		Workers:    4,
		SweepTicks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdmissionDecisions != 96 {
		t.Fatalf("admission decisions = %d, want exactly one per client (96)", res.AdmissionDecisions)
	}
	if res.DedupRings == 0 || res.DedupRings > 96 {
		t.Fatalf("dedup rings = %d, want 1..96 (≤ 1 per client)", res.DedupRings)
	}
	if res.ConnectsPerSec <= 0 || res.HeartbeatsPerSec <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
}

// TestControlPlaneRaceStress drives connect/heartbeat/disconnect churn for
// many clients from concurrent goroutines — every send lands in the
// server's handler on the caller's goroutine — while readers hammer the
// unmetered accessors. Under -race (make race / make check) this proves the
// sharded session state, the dedup rings and the timer wheels are sound
// under real parallelism.
func TestControlPlaneRaceStress(t *testing.T) {
	const clients = 48
	clk := clock.NewSim()
	net := newSinkNet()
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "bench", Password: "pw", Email: "bench@stress", Class: qos.Standard,
	}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	srv, err := New("srv", clk, net, users, NewDatabase(), Options{
		Capacity: 1e12, Grace: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := netsim.MakeAddr("srv", ControlPort)

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		addr := netsim.MakeAddr(fmt.Sprintf("stress%d", i), 6000)
		wg.Add(1)
		go func(addr netsim.Addr) {
			defer wg.Done()
			send := func(frame []byte) {
				net.Send(netsim.Packet{From: addr, To: ctrl, Payload: frame, Reliable: true})
			}
			hb := protocol.MustEncode(protocol.MsgHeartbeat, protocol.Heartbeat{})
			for r := uint32(0); r < 5; r++ {
				connect := protocol.MustEncodeReq(protocol.MsgConnect, 100+r,
					protocol.Connect{User: "bench", Password: "pw"})
				send(connect)
				send(connect) // duplicate through the dedup ring
				send(hb)
				send(protocol.MustEncodeReq(protocol.MsgDisconnect, 200+r, protocol.Disconnect{}))
			}
			send(protocol.MustEncodeReq(protocol.MsgConnect, 300,
				protocol.Connect{User: "bench", Password: "pw"}))
		}(addr)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			addr := netsim.MakeAddr(fmt.Sprintf("stress%d", r), 6000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = srv.Sessions()
				_, _ = srv.LockStats()
				_ = srv.QoSManager(addr)
				_ = srv.Admission().Reserved()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Drain the timer wheels (dedup + liveness ticks) with everyone resident.
	clk.RunFor(5 * time.Second)
	if got := srv.Sessions(); got != clients {
		t.Fatalf("sessions after churn = %d, want %d", got, clients)
	}
}
