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
	"repro/internal/rtp"
)

// pump emits up to n frames back-to-back, bypassing the pacing timer, so
// the race stresses can drive a flow from their own goroutines.
func (fl *flow) pump(n int) {
	for i := 0; i < n; i++ {
		fl.mu.Lock()
		more := fl.emitFrameLocked()
		fl.mu.Unlock()
		if !more {
			return
		}
	}
}

// makeCtrlPacket frames one control message from the fake client, for
// injecting straight into the server's handler.
func makeCtrlPacket(mt protocol.MsgType, body protocol.Message) netsim.Packet {
	return netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: mustFrame(mt, 0, body), Reliable: true,
	}
}

// TestDataPlaneRaceStress hammers the emit path from per-sender goroutines
// while the control plane concurrently pauses, resumes, reloads (a repeated
// document request) and processes feedback. Run under -race (make race /
// make check) this proves the split locking is sound; sized modestly so it
// stays cheap in plain runs.
func TestDataPlaneRaceStress(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc"})

	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil {
		unlock()
		t.Fatal("no session")
	}
	snds := make([]*sender, 0, len(sess.senders))
	rr := rtp.ReceiverReport{SSRC: 1}
	for _, snd := range sess.senders {
		snds = append(snds, snd)
		rr.Reports = append(rr.Reports, rtp.ReceptionReport{SSRC: snd.flow().ssrc, FractionLost: 128})
	}
	unlock()
	if len(snds) == 0 {
		t.Fatal("no senders")
	}

	var wg sync.WaitGroup
	for _, snd := range snds {
		wg.Add(1)
		go func(snd *sender) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				snd.flow().pump(10)
				_ = snd.nominalRate()
			}
		}(snd)
	}
	// Control plane churn against the same session, through the real
	// handler so it exercises the same paths as live traffic.
	pause := makeCtrlPacket(protocol.MsgPause, &protocol.MediaOp{})
	resume := makeCtrlPacket(protocol.MsgResume, &protocol.MediaOp{})
	reload := makeCtrlPacket(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc"})
	ops := []netsim.Packet{pause, resume, reload, pause, resume}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for _, pkt := range ops {
				h.srv.handle(pkt)
			}
			h.srv.queueRenegotiate(sess)
		}
	}()
	// Heavy-loss feedback from a goroutine of its own, racing the reloads
	// that install a new SSRC map while a report is resolved against one.
	feedback := makeCtrlPacket(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			h.srv.handle(feedback)
		}
	}()
	wg.Wait()

	// The session must still be coherent: a reload left pacing armed and a
	// final resume is refused by the table, not a crash.
	h.send(protocol.MsgResume, &protocol.MediaOp{})
	h.clk.RunFor(2 * time.Second)
}

// TestControlPlaneRaceStress drives connect/heartbeat/disconnect churn for
// many clients from concurrent goroutines — each calls the server's handler
// on its own goroutine — interleaved with rejected connects from a second
// address per client, while readers hammer the unmetered accessors and a
// firer calls every resident ring's TTL callback, as stale wall-clock fires
// would. Each client ends by moving its last session to a third address.
// Under -race (make race / make check) this proves the sharded session
// state, the dedup rings and their timers are sound under real parallelism:
// a rejected connect arms its ring after dispatch, ring callbacks run, and a
// reattach arms the ring it leaves, all at once. Every duplicate connect is
// absorbed by its client's dedup ring however the goroutines interleave, and
// once the TTL has passed only the rings of addresses that own a session
// remain.
func TestControlPlaneRaceStress(t *testing.T) {
	const (
		clients = 48
		rounds  = 5
	)
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
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
			sendFrom := func(from netsim.Addr, frame []byte) {
				srv.handle(netsim.Packet{From: from, To: ctrl, Payload: frame, Reliable: true})
			}
			send := func(frame []byte) { sendFrom(addr, frame) }
			rejected := netsim.MakeAddr(addr.Host()+"-rejected", 6000)
			hb := protocol.MustEncodeReq(protocol.MsgHeartbeat, 0, protocol.Heartbeat{})
			for r := uint32(0); r < rounds; r++ {
				connect := protocol.MustEncodeReq(protocol.MsgConnect, 100+r,
					protocol.Connect{User: "bench", Password: "pw"})
				send(connect)
				sendFrom(rejected, protocol.MustEncodeReq(protocol.MsgConnect, 400+r,
					protocol.Connect{User: "bench", Password: "wrong"}))
				send(connect) // duplicate through the dedup ring
				send(hb)
				send(protocol.MustEncodeReq(protocol.MsgDisconnect, 200+r, protocol.Disconnect{}))
			}
			send(protocol.MustEncodeReq(protocol.MsgConnect, 300,
				protocol.Connect{User: "bench", Password: "pw"}))
			sess, unlock := srv.lockedSession(addr)
			id := sess.id
			unlock()
			sendFrom(netsim.MakeAddr(addr.Host()+"-moved", 6000), protocol.MustEncodeReq(protocol.MsgConnect, 500,
				protocol.Connect{ResumeSession: id}))
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
				_ = srv.QoSManager(addr)
				_ = srv.Admission().Utilization()
			}
		}(r)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		var rings []*dedupRing
		for {
			select {
			case <-stop:
				return
			default:
			}
			rings = rings[:0]
			for i := range srv.shards {
				sh := &srv.shards[i]
				sh.dmu.Lock()
				for _, ring := range sh.dedup {
					rings = append(rings, ring)
				}
				sh.dmu.Unlock()
			}
			for _, ring := range rings {
				srv.ringFire(ring)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := srv.Admission().Decisions(), int64(clients*(rounds+1)); got != want {
		t.Fatalf("admission decisions = %d, want %d (one per distinct connect; a duplicate leaked past dedup)",
			got, want)
	}
	// Fire the liveness and ring timers due with everyone resident.
	clk.RunFor(dedupTTL + 5*time.Second)
	if got := srv.Sessions(); got != clients {
		t.Fatalf("sessions after churn = %d, want %d", got, clients)
	}
	if got := srv.DedupLen(); got != clients {
		t.Fatalf("%d reply caches past the TTL, want %d (one per address owning a session)", got, clients)
	}
}
