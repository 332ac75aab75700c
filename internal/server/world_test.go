package server_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

// The server's data- and control-plane invariants, stated on the world every
// experiment runs in: a one-server cluster.New federation over netsim on the
// virtual clock. Clients are bare addresses that send control frames with
// net.Send. A data-plane viewer never listens, so its media is dropped on
// arrival and the measurement stays on the server's emit path.

const srvName = "srv"

// world is one server, its network and its telemetry scope.
type world struct {
	clk   *clock.Virtual
	net   *netsim.Network
	srv   *server.Server
	scope *obs.Scope
}

// newWorld boots a one-server federation holding docs, with admission
// lifted so that it never caps the fleet.
func newWorld(t *testing.T, docs map[string]string, opts server.Options) *world {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "load", Password: "pw", Email: "load@test", Class: qos.Standard,
	}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	placement := server.Placement{}
	for doc := range docs {
		placement[doc] = []string{srvName}
	}
	opts.Capacity = 1e12
	c, err := cluster.New(clk, net, users, cluster.Config{
		Servers: []string{srvName}, Placement: placement, Docs: docs, ServerOptions: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{clk: clk, net: net, srv: c.Servers[srvName], scope: c.Scopes[srvName]}
}

// send transmits one control frame from a client address to the server.
func (w *world) send(from netsim.Addr, frame []byte) {
	w.net.Send(netsim.Packet{
		From: from, To: netsim.MakeAddr(srvName, server.ControlPort), Payload: frame, Reliable: true,
	})
}

// pacedWindow is the measured stretch of pacing. It starts one second after
// the document requests, once the pre-roll burst and the still images are
// out, and ends before the first RTCP sender report at 5 s, so everything
// that fires inside it is a flow's pacing timer.
const pacedWindow = 3 * time.Second

// pacedRun is what one paced window measured.
type pacedRun struct {
	senders  int   // stream handles across all sessions
	maxSubs  int   // subscribers of the most-watched shared flow
	encodes  int64 // frames encoded and assembled, once per flow
	frames   int64 // frames delivered, once per subscriber
	lockAcqs int64 // shard write-lock acquisitions
	mallocs  uint64
}

// allocsPerFrame is the window's heap allocations per delivered frame.
func (r pacedRun) allocsPerFrame() float64 { return float64(r.mallocs) / float64(r.frames) }

// runPaced stands up sessions viewers of a two-slide lesson (each slide a
// still image plus an audio and video pair) and measures one paced window.
func runPaced(t *testing.T, sessions int, shared bool) pacedRun {
	t.Helper()
	w := newWorld(t, map[string]string{"lesson": hml.LessonSource("load", 2, time.Minute)},
		server.Options{SharedFlows: shared})
	connect := protocol.MustEncodeReq(protocol.MsgConnect, 0, protocol.Connect{User: "load", Password: "pw"})
	docReq := protocol.MustEncodeReq(protocol.MsgDocRequest, 0, protocol.DocRequest{Name: "lesson"})
	for i := 0; i < sessions; i++ {
		viewer := netsim.MakeAddr(fmt.Sprintf("viewer%d", i), 6000)
		w.send(viewer, connect)
		w.send(viewer, docReq)
	}
	w.clk.RunFor(time.Second)
	if got := w.srv.Sessions(); got != sessions {
		t.Fatalf("%d sessions stood up, want %d", got, sessions)
	}
	r := pacedRun{senders: w.srv.Senders()}
	for _, st := range w.srv.FlowStats() {
		r.maxSubs = max(r.maxSubs, st.Subscribers)
	}

	sent := w.scope.Counter("server_media_frames_sent")
	delivered := w.scope.Counter("server_media_frames_delivered")
	encodes0, frames0 := sent.Value(), delivered.Value()
	acqs0 := server.LockAcqs(w.scope)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.clk.RunFor(pacedWindow)
	runtime.ReadMemStats(&m1)
	acqs1 := server.LockAcqs(w.scope)
	r.encodes, r.frames = sent.Value()-encodes0, delivered.Value()-frames0
	r.lockAcqs, r.mallocs = acqs1-acqs0, m1.Mallocs-m0.Mallocs
	if r.frames == 0 {
		t.Fatalf("sessions=%d: the paced window emitted nothing", sessions)
	}
	t.Logf("sessions=%d shared=%v: %d encodes, %d deliveries, %d lock acquisitions, %.3f allocs/frame",
		sessions, shared, r.encodes, r.frames, r.lockAcqs, r.allocsPerFrame())
	return r
}

// TestDataPlaneEmitOffGlobalLock is the data plane's core invariant: during
// a paced emit window no control-plane shard write lock is taken — media
// pacing runs entirely on per-flow locks plus the QoS manager's read lock.
func TestDataPlaneEmitOffGlobalLock(t *testing.T) {
	r := runPaced(t, 4, false)
	if r.lockAcqs != 0 {
		t.Fatalf("shard write locks acquired %d times during paced emission of %d frames; "+
			"the per-frame path must stay off the global lock", r.lockAcqs, r.frames)
	}
	if r.senders < 4*5 {
		t.Fatalf("senders = %d; the lesson doc should give each session several streams", r.senders)
	}
}

// TestPacedPhaseAllocRegression pins the whole paced pipeline — timer fire,
// re-arm via Reset, frame emit, netsim send and recycled delivery — at
// (amortized) no more than one allocation per frame. It catches what the
// narrow TestEmitPathAllocFree cannot, such as a per-frame timer or closure
// allocation in the pacing loop.
func TestPacedPhaseAllocRegression(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	r := runPaced(t, 4, false)
	if r.allocsPerFrame() > 1 {
		t.Fatalf("paced phase allocates %.2f objects/frame over %d frames; the pacing loop must stay at ≤ 1",
			r.allocsPerFrame(), r.frames)
	}
}

// TestSharedFlowFanOutFlat is the shared-flow claim as a model property:
// over the same paced window, 64 viewers of one document cost the encodes of
// one viewer, every encode reaches every viewer, and the fan-out stays off
// the shard locks and (amortized) off the allocator. The window runs on the
// virtual clock, so the frame counts are exact, not rates.
func TestSharedFlowFanOutFlat(t *testing.T) {
	const viewers = 64
	run := func(sessions int) pacedRun {
		r := runPaced(t, sessions, true)
		if r.lockAcqs != 0 {
			t.Fatalf("sessions=%d: shard write locks acquired %d times during paced fan-out",
				sessions, r.lockAcqs)
		}
		return r
	}
	one, many := run(1), run(viewers)
	if float64(many.encodes) > 1.05*float64(one.encodes) {
		t.Fatalf("encodes grew %d → %d across 1 → %d viewers; a shared flow must encode each frame once",
			one.encodes, many.encodes, viewers)
	}
	if float64(many.frames) < 0.9*viewers*float64(many.encodes) {
		t.Fatalf("delivered %d frames for %d encodes at %d viewers; the fan-out does not reach every subscriber",
			many.frames, many.encodes, viewers)
	}
	if many.maxSubs != viewers {
		t.Fatalf("hot flow carries %d subscribers; every viewer of the one document must ride it (want %d)",
			many.maxSubs, viewers)
	}
	if server.RaceEnabled {
		return // sync.Pool drops items under -race; the allocation bound doesn't hold
	}
	if many.allocsPerFrame() > 0.05 {
		t.Fatalf("fan-out allocates %.3f objects per delivered frame over %d deliveries; want ≤ 0.05",
			many.allocsPerFrame(), many.frames)
	}
}

// TestConnectStormInvariants is the connect-storm regression test: N
// clients each transmitting the same connect request DupFactor times — the
// worst case the reliable client produces under loss — must end as exactly
// N sessions with N admission decisions, at most one dedup ring per client,
// every duplicate answered from its ring and no transmission unanswered.
// Each client's topic list, sent DupFactor times, is answered every time
// with the bytes of its first reply, its own request ID in them, and a
// duplicate of it still gets those bytes after the catalogue changes,
// while a new request lists the new document. One heartbeat each is
// acknowledged, and liveness sweep ticks with every session resident but
// none due suspend nobody.
func TestConnectStormInvariants(t *testing.T) {
	const (
		sessions   = 96
		dupFactor  = 4
		sweepTicks = 4
	)
	w := newWorld(t, map[string]string{"intro": `<TITLE>Intro</TITLE><TEXT>x</TEXT>`}, server.Options{
		Grace:          time.Hour,
		HeartbeatEvery: time.Second,
		// Every liveness deadline lies beyond the sweep ticks.
		LivenessMisses: sweepTicks + 60,
	})
	var connectReplies [sessions]int
	var listings [sessions][][]byte // every Topics frame each client got, in order
	hbAcks := 0
	addrs := make([]netsim.Addr, sessions)
	for i := range addrs {
		addrs[i] = netsim.MakeAddr(fmt.Sprintf("storm%d", i), 6000)
		w.net.Listen(addrs[i], func(p netsim.Packet) {
			switch mt, _, _, _ := protocol.DecodeReq(p.Payload); mt {
			case protocol.MsgConnectResult:
				connectReplies[i]++
			case protocol.MsgTopics:
				listings[i] = append(listings[i], append([]byte(nil), p.Payload...))
			case protocol.MsgHeartbeatAck:
				hbAcks++
			}
		})
	}

	// One frame serves every client: request IDs are scoped per address.
	connect := protocol.MustEncodeReq(protocol.MsgConnect, 1, protocol.Connect{User: "load", Password: "pw"})
	for _, a := range addrs {
		for d := 0; d < dupFactor; d++ {
			w.send(a, connect)
		}
	}
	w.clk.RunFor(time.Second)
	if got := w.srv.Sessions(); got != sessions {
		t.Fatalf("%d sessions after the storm, want %d", got, sessions)
	}
	if got := w.srv.Admission().Decisions(); got != sessions {
		t.Fatalf("admission decisions = %d, want exactly one per client (%d); duplicates leaked past dedup",
			got, sessions)
	}
	if got := w.scope.Counter("server_ctrl_dedup_hits").Value(); got != sessions*(dupFactor-1) {
		t.Fatalf("dedup hits = %d, want %d (every duplicate answered from its ring)", got, sessions*(dupFactor-1))
	}
	if got := w.srv.DedupLen(); got == 0 || got > sessions {
		t.Fatalf("dedup rings = %d, want 1..%d (≤ 1 per client)", got, sessions)
	}
	for i, got := range connectReplies {
		if got != dupFactor {
			t.Fatalf("client %d got %d ConnectResults, want %d (one per transmission)", i, got, dupFactor)
		}
	}

	// Every duplicate topic list is answered with the first reply's bytes.
	list := protocol.MustEncodeReq(protocol.MsgTopicList, 2, protocol.TopicListRequest{})
	for _, a := range addrs {
		for d := 0; d < dupFactor; d++ {
			w.send(a, list)
		}
	}
	w.clk.RunFor(time.Second)
	first := protocol.MustEncodeReq(protocol.MsgTopics, 2, protocol.Topics{Topics: w.srv.Database().Topics(srvName)})
	for i := range listings {
		if len(listings[i]) != dupFactor {
			t.Fatalf("client %d got %d listings, want %d (one per transmission)", i, len(listings[i]), dupFactor)
		}
		for d, got := range listings[i] {
			if !bytes.Equal(got, first) {
				t.Fatalf("client %d listing %d = %q, want %q", i, d, got, first)
			}
		}
	}
	if got := w.scope.Counter("server_ctrl_dedup_hits").Value(); got != 2*sessions*(dupFactor-1) {
		t.Fatalf("dedup hits = %d after the listings, want %d", got, 2*sessions*(dupFactor-1))
	}

	// A catalogue change reaches the next request, not a duplicate of an
	// answered one.
	if err := w.srv.Database().Put("zeta", `<TITLE>Zeta</TITLE><TEXT>z</TEXT>`, "added"); err != nil {
		t.Fatal(err)
	}
	w.send(addrs[0], list)
	w.send(addrs[0], protocol.MustEncodeReq(protocol.MsgTopicList, 3, protocol.TopicListRequest{}))
	w.clk.RunFor(time.Second)
	if got := listings[0]; len(got) != dupFactor+2 || !bytes.Equal(got[dupFactor], first) {
		t.Fatalf("a duplicate after the catalogue changed was not answered with its first reply: %q", got[dupFactor:])
	}
	mt, reqID, body, err := protocol.DecodeReq(listings[0][dupFactor+1])
	var topics protocol.Topics
	if err == nil {
		err = protocol.DecodeBody(body, &topics)
	}
	if err != nil || mt != protocol.MsgTopics || reqID != 3 || len(topics.Topics) != 2 || topics.Topics[1].Name != "zeta" {
		t.Fatalf("listing after the Put: %s reqID %d %+v (%v), want intro and zeta for request 3", mt, reqID, topics.Topics, err)
	}

	hb := protocol.MustEncodeReq(protocol.MsgHeartbeat, 0, protocol.Heartbeat{})
	for _, a := range addrs {
		w.send(a, hb)
	}
	w.clk.RunFor(time.Second)
	if hbAcks != sessions {
		t.Fatalf("%d heartbeat acks, want %d", hbAcks, sessions)
	}

	w.clk.RunFor(sweepTicks * time.Second)
	if got := w.srv.Sessions(); got != sessions {
		t.Fatalf("%d sessions after %d sweep ticks, want %d (the sweep suspended live sessions)",
			got, sweepTicks, sessions)
	}
}

// TestControlSessionBytes bounds what one control session costs the heap,
// both ends included: a browser connects, lists the topics of an
// eight-document catalogue, heartbeats for three seconds and disconnects.
// A session allocates about 5.0 KB; the bound leaves 11 % headroom. It runs
// on one P, as TestReceivePathBytesPerFrame does, so that pooled codecs and
// buffers stay with the one goroutine that uses them.
func TestControlSessionBytes(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race; allocation bounds don't hold")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		sessions = 200
		bound    = 5600
	)
	docs := map[string]string{}
	for i := 0; i < 8; i++ {
		docs[fmt.Sprintf("lesson-%d", i)] = fmt.Sprintf(`<TITLE>Lesson %d</TITLE><TEXT>x</TEXT>`, i)
	}
	w := newWorld(t, docs, server.Options{})
	clients := make([]*client.Client, sessions)
	for i := range clients {
		c, err := client.New(fmt.Sprintf("browser%d", i), w.clk, w.net, client.Options{User: "load", Password: "pw"})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range clients {
		c.Connect(srvName)
	}
	w.clk.RunFor(time.Second)
	for _, c := range clients {
		c.RequestTopics()
	}
	w.clk.RunFor(3 * time.Second)
	for _, c := range clients {
		c.Disconnect()
	}
	w.clk.RunFor(time.Second)
	runtime.ReadMemStats(&m1)
	for i, c := range clients {
		if got := len(c.Topics()); got != len(docs) {
			t.Fatalf("browser %d listed %d topics, want %d", i, got, len(docs))
		}
	}
	if got := w.srv.Sessions(); got != 0 {
		t.Fatalf("%d sessions resident after every browser disconnected", got)
	}
	perSession := float64(m1.TotalAlloc-m0.TotalAlloc) / sessions
	t.Logf("%.0f B and %.1f allocations per control session",
		perSession, float64(m1.Mallocs-m0.Mallocs)/sessions)
	if perSession > bound {
		t.Fatalf("a control session allocates %.0f B; it must stay at ≤ %d", perSession, bound)
	}
}
