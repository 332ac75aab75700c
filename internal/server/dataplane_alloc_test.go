package server

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// allocHarness stands up a server over the simulated network with one
// unlistened viewer playing the load lesson, and returns a time-sensitive
// flow plus the virtual clock.
func allocHarness(t *testing.T) (*clock.Virtual, *flow) {
	t.Helper()
	h := newHarness(t, Options{})
	if err := h.srv.Database().Put("lesson", hml.LessonSource("load", 2, time.Minute), ""); err != nil {
		t.Fatal(err)
	}
	viewer := netsim.MakeAddr("viewer", 6000)
	for _, frame := range [][]byte{
		mustFrame(protocol.MsgConnect, 0, &protocol.Connect{User: "u", Password: "p"}),
		mustFrame(protocol.MsgDocRequest, 0, &protocol.DocRequest{Name: "lesson"}),
	} {
		h.net.Send(netsim.Packet{From: viewer, To: netsim.MakeAddr("srv", ControlPort), Payload: frame, Reliable: true})
	}
	h.clk.RunFor(time.Second)
	var fl *flow
	sess, unlock := h.srv.lockedSession(viewer)
	if sess != nil {
		for _, snd := range sess.senders {
			if snd.stream.Type.TimeSensitive() {
				fl = snd.flow()
			}
		}
	}
	unlock()
	if fl == nil {
		t.Fatal("no time-sensitive flow stood up")
	}
	return h.clk, fl
}

// TestEmitPathAllocFree is the allocation regression gate of the zero-alloc
// data plane: once the scratch buffer has grown and the packet pool is
// primed (testing.AllocsPerRun's warm-up run), emitting a frame — QoS level
// snapshot, payload synthesis, single-pass packet assembly, transport send —
// must not allocate. Each run advances the clock past the link delay, so the
// network's deliveries recycle as they would in steady state. One
// allocation of slack is allowed because a GC cycle during the measurement
// may empty the sync.Pool.
func TestEmitPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	clk, fl := allocHarness(t)
	avg := testing.AllocsPerRun(200, func() {
		fl.mu.Lock()
		fl.emitFrameLocked()
		fl.mu.Unlock()
		clk.RunFor(10 * time.Millisecond)
	})
	if avg > 1 {
		t.Fatalf("emit path allocates %.2f objects/frame; the steady-state "+
			"data plane must be allocation-free (pool refills excepted)", avg)
	}
}

// TestReceivePathAllocFree is the receive-side mirror of
// TestEmitPathAllocFree: one viewer plays a lesson from one server over the
// simulated network on the virtual clock, and over 10 s of steady playout the
// whole world — emit, netsim delivery, RTP parse, reassembly, jitter buffer,
// playout tick and display trace, plus the periodic control traffic — makes
// at most one heap allocation per presented frame.
func TestReceivePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "viewer", Password: "pw", Email: "viewer@load", Class: qos.Standard,
	}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.Put("lesson", hml.LessonSource("bench", 1, 30*time.Second), "load doc"); err != nil {
		t.Fatal(err)
	}
	if _, err := New("srv", clk, net, users, db, Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := client.New("laptop", clk, net, client.Options{User: "viewer", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	c.Connect("srv")
	clk.RunFor(time.Second)
	c.RequestDoc("lesson")
	clk.RunFor(5 * time.Second) // start-up delay, then warm every pool and free list
	presented := func() int {
		n := 0
		for _, s := range c.Player().Report().Streams {
			n += s.Plays
		}
		return n
	}
	before := presented()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clk.RunFor(10 * time.Second)
	runtime.ReadMemStats(&m1)
	frames := presented() - before
	if frames < 700 { // 10 s of 50 audio + 25 video frames a second
		t.Fatalf("%d frames presented in 10 s of steady playout, want ≥ 700", frames)
	}
	t.Logf("%d allocations over %d presented frames", m1.Mallocs-m0.Mallocs, frames)
	if perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(frames); perFrame > 1 {
		t.Fatalf("steady playout allocates %.2f objects/frame (%d over %d frames); "+
			"the receive path must stay at ≤ 1", perFrame, m1.Mallocs-m0.Mallocs, frames)
	}
}
