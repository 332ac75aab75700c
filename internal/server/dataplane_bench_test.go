package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
)

// makeCtrlPacket frames one control message from the fake client, for
// injecting straight into the server's handler.
func makeCtrlPacket(mt protocol.MsgType, body protocol.Message) netsim.Packet {
	return netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: mustFrame(mt, 0, body), Reliable: true,
	}
}

// BenchmarkDataPlane measures parallel emit throughput at 1, 8 and 64
// sessions; frames/s should grow with session count because senders pace
// off their own locks, not the control-plane shard locks.
func BenchmarkDataPlane(b *testing.B) {
	for _, sessions := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunDataPlaneLoad(DataPlaneConfig{
					Sessions:        sessions,
					FramesPerSender: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.PumpFrames == 0 {
					b.Fatal("pump phase emitted nothing")
				}
				b.ReportMetric(res.FramesPerSec, "frames/s")
				b.ReportMetric(res.EmitP95Micros, "emit-p95-µs")
				b.ReportMetric(res.PumpAllocsPerFrame, "pump-allocs/frame")
				b.ReportMetric(res.PumpAllocBytesPerFrame, "pump-alloc-B/frame")
				b.ReportMetric(res.PacedAllocsPerFrame, "paced-allocs/frame")
				b.ReportMetric(res.PacedAllocBytesPerFrame, "paced-alloc-B/frame")
			}
		})
	}
}

// TestDataPlaneEmitOffGlobalLock is the data plane's core invariant: during
// a paced emit window no control-plane shard write lock is taken — media
// pacing runs entirely on per-sender locks plus the QoS manager's read lock.
func TestDataPlaneEmitOffGlobalLock(t *testing.T) {
	res, err := RunDataPlaneLoad(DataPlaneConfig{Sessions: 4, FramesPerSender: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacedFrames == 0 {
		t.Fatal("paced phase emitted nothing; the window measured no traffic")
	}
	if res.PacedLockAcqs != 0 {
		t.Fatalf("shard write locks acquired %d times during paced emission of %d frames; "+
			"the per-frame path must stay off the global lock",
			res.PacedLockAcqs, res.PacedFrames)
	}
	if res.Senders < 4*5 {
		t.Fatalf("senders = %d; the lesson doc should give each session several streams", res.Senders)
	}
}

// TestSharedFlowFanOutFlat is the shared-flow claim as a model property:
// over the same paced window, 64 viewers of one document cost the encodes of
// one viewer, every encode reaches every viewer, and the fan-out stays off
// the shard locks and (amortized) off the allocator. The window runs on the
// virtual clock, so the frame counts are exact, not rates.
func TestSharedFlowFanOutFlat(t *testing.T) {
	const viewers = 64
	run := func(sessions int) DataPlaneResult {
		res, err := RunDataPlaneLoad(DataPlaneConfig{Sessions: sessions, FramesPerSender: 1, SharedFlows: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.PacedEncodes == 0 {
			t.Fatalf("sessions=%d: paced phase encoded nothing; the window measured no traffic", sessions)
		}
		if res.PacedLockAcqs != 0 {
			t.Fatalf("sessions=%d: shard write locks acquired %d times during paced fan-out",
				sessions, res.PacedLockAcqs)
		}
		return res
	}
	one, many := run(1), run(viewers)
	if float64(many.PacedEncodes) > 1.05*float64(one.PacedEncodes) {
		t.Fatalf("encodes grew %d → %d across 1 → %d viewers; a shared flow must encode each frame once",
			one.PacedEncodes, many.PacedEncodes, viewers)
	}
	if float64(many.PacedDelivered) < 0.9*viewers*float64(many.PacedEncodes) {
		t.Fatalf("delivered %d frames for %d encodes at %d viewers; the fan-out does not reach every subscriber",
			many.PacedDelivered, many.PacedEncodes, viewers)
	}
	if many.MaxFlowSubscribers != viewers {
		t.Fatalf("hot flow carries %d subscribers; every viewer of the one document must ride it (want %d)",
			many.MaxFlowSubscribers, viewers)
	}
	if raceEnabled {
		return // sync.Pool drops items under -race; the allocation bound doesn't hold
	}
	if many.PacedAllocsPerFrame > 0.05 {
		t.Fatalf("fan-out allocates %.3f objects per delivered frame over %d deliveries; want ≤ 0.05",
			many.PacedAllocsPerFrame, many.PacedDelivered)
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
	for _, snd := range sess.senders {
		snds = append(snds, snd)
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
				_ = snd.stats()
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
	wg.Wait()

	// The session must still be coherent: a reload left pacing armed and a
	// final resume is refused by the table, not a crash.
	h.send(protocol.MsgResume, &protocol.MediaOp{})
	h.clk.RunFor(2 * time.Second)
}
