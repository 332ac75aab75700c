package server

import (
	"runtime"
	"strconv"
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
// data plane: once the packet pool is primed (testing.AllocsPerRun's warm-up
// run), emitting a frame — QoS level snapshot, single-pass packet assembly
// with the payload synthesized straight into each packet, transport send —
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

// TestReplyAllocFree: a fire-and-forget reply allocates nothing, whatever
// its size. A heartbeat ack naming 128 replicas (≈ 1.9 KB) and a short one
// are encoded into the codec's scratch, and the server's address is built
// once. Each run advances the clock past the link delay so the network's
// deliveries recycle.
func TestReplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	h := newHarness(t, Options{})
	viewer := netsim.MakeAddr("viewer", 6000) // unlistened: nothing keeps what arrives
	peers := make([]string, 128)
	for i := range peers {
		peers[i] = "replica-" + strconv.Itoa(i)
	}
	long := &protocol.HeartbeatAck{OK: true, SessionID: "srv-sess-1", Peers: peers}
	short := &protocol.HeartbeatAck{OK: false}
	allocs := func(first *protocol.HeartbeatAck) float64 {
		return testing.AllocsPerRun(200, func() {
			h.srv.reply(viewer, protocol.MsgHeartbeatAck, first)
			h.srv.reply(viewer, protocol.MsgHeartbeatAck, short)
			h.clk.RunFor(10 * time.Millisecond)
		})
	}
	if l, s := allocs(long), allocs(short); l > 0 || s > 0 {
		t.Fatalf("a long and a short reply allocate %.2f objects, two short ones %.2f; want none", l, s)
	}
}

// steadyPlayout stands one viewer up playing a lesson from one server over
// the simulated network on the virtual clock, and measures 10 s of steady
// playout: the whole world — emit, netsim delivery, RTP parse, reassembly,
// jitter buffer, playout tick and display trace, plus the periodic control
// traffic. It returns the heap objects and bytes allocated and the frames
// presented.
func steadyPlayout(t *testing.T) (objects, bytes uint64, frames int) {
	t.Helper()
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
	frames = presented() - before
	if frames < 700 { // 10 s of 50 audio + 25 video frames a second
		t.Fatalf("%d frames presented in 10 s of steady playout, want ≥ 700", frames)
	}
	objects, bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("%d allocations, %d B over %d presented frames", objects, bytes, frames)
	return objects, bytes, frames
}

// TestReceivePathAllocFree is the receive-side mirror of
// TestEmitPathAllocFree: steady playout makes at most one heap allocation
// per presented frame.
func TestReceivePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	objects, _, frames := steadyPlayout(t)
	if perFrame := float64(objects) / float64(frames); perFrame > 1 {
		t.Fatalf("steady playout allocates %.2f objects/frame (%d over %d frames); "+
			"the receive path must stay at ≤ 1", perFrame, objects, frames)
	}
}

// TestReceivePathBytesPerFrame: steady playout allocates at most 12 bytes
// per presented frame; it reads 8.7, most of it the display trace's byte
// log. It runs on one P, as testing.AllocsPerRun does: a goroutine that
// moves to another P misses the server's packet scratch pooled on the one
// it left. The client with no OnFrame observer draws no frame scratch at
// all, so a still costs this window no more than any other frame.
func TestReceivePathBytesPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, bytes, frames := steadyPlayout(t)
	if perFrame := float64(bytes) / float64(frames); perFrame > 12 {
		t.Fatalf("steady playout allocates %.1f B/frame (%d B over %d frames); "+
			"the receive path must stay at ≤ 12", perFrame, bytes, frames)
	}
}
