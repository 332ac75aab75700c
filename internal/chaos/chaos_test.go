// Package chaos is the fault-injection test suite: it drives complete
// client/server deployments over the simulated network while partitions,
// crashes, restarts and targeted message drops hit the control plane, and
// asserts end-to-end recovery — request retransmission with server-side
// dedup, liveness-triggered suspend, same-session resume within the grace
// window, and failover to a replica past it. Everything runs on the virtual
// clock with a pinned seed, so every run replays identically.
package chaos

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

// chaosSeed pins the whole suite: every run, `make race` included, must
// be reproducible.
const chaosSeed = 0xC4A05

// longAV runs for 30 virtual seconds, long enough to hold a partition in
// the middle of its playout.
const longAV = `<TITLE>long av</TITLE>
<TEXT>narrated lecture</TEXT>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=30> </AU_VI>`

// world is one simulated deployment with telemetry split per process:
// each server and the client own a scope, like separate hosts would.
type world struct {
	clk    *clock.Virtual
	net    *netsim.Network
	users  *auth.DB
	srvs   map[string]*server.Server
	scopes map[string]*obs.Scope
	cscope *obs.Scope
	c      *client.Client
}

func newWorld(t testing.TB, sopts server.Options, copts client.Options, names ...string) *world {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, chaosSeed)
	net.SetDefaultLink(netsim.DefaultLAN())
	users := auth.NewDB()
	users.Subscribe(auth.User{
		Name: "alice", Password: "pw", RealName: "Chaos Tester",
		Email: "alice@example.gr", Class: qos.Standard,
	}, clk.Now())
	w := &world{clk: clk, net: net, users: users,
		srvs: map[string]*server.Server{}, scopes: map[string]*obs.Scope{}}
	if len(names) > 0 {
		fed, err := cluster.New(clk, net, users, cluster.Config{
			Servers:       names,
			Placement:     server.Placement{"lecture": names},
			Docs:          map[string]string{"lecture": longAV},
			Descriptions:  map[string]string{"lecture": "chaos doc"},
			ServerOptions: sopts,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.srvs, w.scopes = fed.Servers, fed.Scopes
	}
	w.cscope = obs.NewScope(clk)
	copts.User = "alice"
	copts.Password = "pw"
	copts.PeakRate = 1_000_000
	copts.Obs = w.cscope
	c, err := client.New("laptop", clk, net, copts)
	if err != nil {
		t.Fatal(err)
	}
	w.c = c
	return w
}

// addServer re-boots a server for restart tests: it replaces the named
// server's control listener with a fresh instance that has lost all session
// state.
func (w *world) addServer(t testing.TB, name string, sopts server.Options) *server.Server {
	t.Helper()
	db := server.NewDatabase()
	if err := db.Put("lecture", longAV, "chaos doc"); err != nil {
		t.Fatal(err)
	}
	scope := obs.NewScope(w.clk)
	sopts.Obs = scope
	srv, err := server.New(name, w.clk, w.net, w.users, db, sopts)
	if err != nil {
		t.Fatal(err)
	}
	w.srvs[name] = srv
	w.scopes[name] = scope
	return srv
}

func (w *world) run(d time.Duration) { w.clk.RunFor(d) }

// now returns the offset from the network epoch, the coordinate system of
// the fault schedules.
func (w *world) now() time.Duration { return w.clk.Since(clock.Epoch) }

func (w *world) connectAndPlay(t testing.TB, host string) string {
	t.Helper()
	w.c.Connect(host)
	w.run(time.Second)
	if lc := w.c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect to %s = %+v (err %q)", host, lc, w.c.LastError())
	}
	w.c.RequestDoc("lecture")
	w.run(3 * time.Second)
	if w.c.State(host) != protocol.StViewing {
		t.Fatalf("state after doc request = %v, want viewing", w.c.State(host))
	}
	sess := w.c.SessionID(host)
	if sess == "" {
		t.Fatal("no session id")
	}
	return sess
}

// playerPaused reports whether c's presentation is paused: the player
// records every pause and resume on its display, so the last of them says.
func playerPaused(c *client.Client) bool {
	paused := false
	for _, ev := range c.Display().Events() {
		switch ev.Kind {
		case playout.EvPause:
			paused = true
		case playout.EvResume:
			paused = false
		}
	}
	return paused
}

func (w *world) hasEvent(substr string) bool {
	for _, e := range w.c.Events() {
		if strings.Contains(e.What, substr) {
			return true
		}
	}
	return false
}

// admissionsTotal counts the admission decisions that granted bandwidth.
func admissionsTotal(s *server.Server) int {
	adm, deg, _ := s.Admission().Counts(qos.Standard)
	return adm + deg
}

// TestPartitionMidPlayoutResumesSameSession is the acceptance scenario: a
// 5-second partition in the middle of a playout. The client must detect
// the liveness loss, enter the suspend state, and — once the partition
// heals inside the grace window — resume the SAME session, with playout
// continuing and no duplicate admission from the retransmitted probes.
func TestPartitionMidPlayoutResumesSameSession(t *testing.T) {
	w := newWorld(t,
		server.Options{Grace: 20 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
		client.Options{},
		"srv-a", "srv-b")
	sess := w.connectAndPlay(t, "srv-a")

	w.net.AddPartition("laptop", "srv-a", w.now(), 5*time.Second)
	w.run(5 * time.Second)
	// Mid-partition: the client has declared the peer dead and suspended.
	if st := w.c.State("srv-a"); st != protocol.StSuspended {
		t.Fatalf("state mid-partition = %v, want suspended", st)
	}
	if !w.hasEvent("liveness lost: srv-a") {
		t.Fatalf("no liveness-lost event; events: %+v", w.c.Events())
	}
	if !playerPaused(w.c) {
		t.Fatal("player not paused during the outage")
	}

	w.run(10 * time.Second)
	// Healed: same session, back to viewing, playout running again.
	if st := w.c.State("srv-a"); st != protocol.StViewing {
		t.Fatalf("state after heal = %v, want viewing", st)
	}
	if got := w.c.SessionID("srv-a"); got != sess {
		t.Fatalf("session changed across recovery: %q → %q", sess, got)
	}
	if playerPaused(w.c) {
		t.Fatal("player still paused after recovery")
	}
	if got := w.cscope.Counter("client_sessions_resumed").Value(); got != 1 {
		t.Fatalf("client_sessions_resumed = %d, want 1", got)
	}
	if got := w.scopes["srv-a"].Counter("server_sessions_resumed").Value(); got != 1 {
		t.Fatalf("server_sessions_resumed = %d, want 1", got)
	}
	// Retransmitted control requests must not have double effects.
	if got := admissionsTotal(w.srvs["srv-a"]); got != 1 {
		t.Fatalf("admissions on srv-a = %d, want 1 (no duplicate admission)", got)
	}
	if got := w.cscope.Counter("client_failovers").Value(); got != 0 {
		t.Fatalf("client_failovers = %d, want 0", got)
	}
	// Playout continues to completion on the same server.
	w.run(30 * time.Second)
	rep := w.c.Player().Report()
	if n := rep.Streams["n"]; n.Plays == 0 {
		t.Fatalf("no audio plays after recovery: %+v", n)
	}
}

// TestServerCrashFailsOverToPeer kills the server for good: past the grace
// window the client must fail over to the advertised replica, which
// re-admits the session and serves the interrupted document.
func TestServerCrashFailsOverToPeer(t *testing.T) {
	w := newWorld(t,
		server.Options{Grace: 3 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
		client.Options{},
		"srv-a", "srv-b")
	w.connectAndPlay(t, "srv-a")

	w.net.SetHostDown("srv-a", true)
	w.run(30 * time.Second)

	if got := w.cscope.Counter("client_failovers").Value(); got != 1 {
		t.Fatalf("client_failovers = %d, want 1", got)
	}
	if !w.hasEvent("failover srv-a → srv-b") {
		t.Fatalf("no failover event; events: %+v", w.c.Events())
	}
	if cur := w.c.CurrentServer(); cur != "srv-b" {
		t.Fatalf("current server = %q, want srv-b", cur)
	}
	if st := w.c.State("srv-b"); st != protocol.StViewing && st != protocol.StBrowsing {
		t.Fatalf("state at replica = %v, want viewing (or browsing after playout)", st)
	}
	if w.c.SessionID("srv-b") == "" {
		t.Fatal("no session at the replica")
	}
	// The replica re-admitted the session and recorded it as a failover.
	if got := w.scopes["srv-b"].Counter("admission_failover_readmits").Value(); got != 1 {
		t.Fatalf("replica failover re-admissions = %d, want 1", got)
	}
	if got := admissionsTotal(w.srvs["srv-b"]); got != 1 {
		t.Fatalf("admissions on srv-b = %d, want 1", got)
	}
}

// TestServerRestartLosesSessions reboots the server as a fresh instance
// (same name, empty session table): the heartbeat ack turns negative, the
// recovery probe gets SessionLost, and the client fails over immediately
// instead of burning the whole grace window.
func TestServerRestartLosesSessions(t *testing.T) {
	sopts := server.Options{Grace: 10 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3}
	w := newWorld(t, sopts, client.Options{}, "srv-a", "srv-b")
	w.connectAndPlay(t, "srv-a")

	// Reboot srv-a: the new instance takes over the control address with no
	// knowledge of the session.
	restarted := w.addServer(t, "srv-a", sopts)
	restarted.SetPeers([]string{"srv-b"})
	w.run(20 * time.Second)

	if !w.hasEvent("session lost at srv-a") {
		t.Fatalf("no session-lost event; events: %+v", w.c.Events())
	}
	if got := w.cscope.Counter("client_failovers").Value(); got != 1 {
		t.Fatalf("client_failovers = %d, want 1", got)
	}
	if cur := w.c.CurrentServer(); cur != "srv-b" {
		t.Fatalf("current server = %q, want srv-b", cur)
	}
	if got := w.scopes["srv-b"].Counter("admission_failover_readmits").Value(); got != 1 {
		t.Fatalf("replica failover re-admissions = %d, want 1", got)
	}
}

// TestDroppedConnectResultRetransmits loses exactly the connect reply: the
// client must retransmit, the server must deduplicate the repeated request
// and re-send the cached reply, and admission must run exactly once.
func TestDroppedConnectResultRetransmits(t *testing.T) {
	w := newWorld(t, server.Options{}, client.Options{}, "srv-a")
	w.net.DropNext("srv-a", "laptop", 1)
	w.c.Connect("srv-a")
	w.run(5 * time.Second)

	if lc := w.c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect never completed: %+v", lc)
	}
	if got := w.cscope.Counter("client_ctrl_retries").Value(); got == 0 {
		t.Fatal("no client retransmissions recorded")
	}
	if got := w.scopes["srv-a"].Counter("server_ctrl_dedup_hits").Value(); got == 0 {
		t.Fatal("no server dedup hits recorded")
	}
	if got := admissionsTotal(w.srvs["srv-a"]); got != 1 {
		t.Fatalf("admissions = %d, want exactly 1", got)
	}
	if n := w.srvs["srv-a"].Sessions(); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
}

// TestDroppedDocResponseRetransmits loses exactly the doc response (not
// the heartbeat acks sharing the path): dedup must re-send the cached
// scenario without serving the document twice.
func TestDroppedDocResponseRetransmits(t *testing.T) {
	w := newWorld(t, server.Options{}, client.Options{}, "srv-a")
	w.c.Connect("srv-a")
	w.run(time.Second)
	w.net.DropNextMatching(1, "drop doc-response", func(p netsim.Packet) bool {
		return p.From.Host() == "srv-a" && p.To.Host() == "laptop" &&
			len(p.Payload) > 0 && protocol.MsgType(p.Payload[0]) == protocol.MsgDocResponse
	})
	w.c.RequestDoc("lecture")
	w.run(5 * time.Second)

	if st := w.c.State("srv-a"); st != protocol.StViewing {
		t.Fatalf("state = %v, want viewing after retransmitted doc request", st)
	}
	if got := w.scopes["srv-a"].Counter("server_ctrl_dedup_hits").Value(); got == 0 {
		t.Fatal("no server dedup hits recorded")
	}
	if got := w.scopes["srv-a"].Counter("server_docs_served").Value(); got != 1 {
		t.Fatalf("docs served = %d, want exactly 1", got)
	}
}

// TestConnectTimeoutSurfaces starves a connect of any reply (server down,
// no replicas): the attempt must end in a visible timeout instead of
// sitting in Connecting forever.
func TestConnectTimeoutSurfaces(t *testing.T) {
	w := newWorld(t, server.Options{}, client.Options{}, "srv-a")
	w.net.SetHostDown("srv-a", true)
	w.c.Connect("srv-a")
	w.run(20 * time.Second)

	if got := w.cscope.Counter("client_ctrl_timeouts").Value(); got != 1 {
		t.Fatalf("client_ctrl_timeouts = %d, want 1", got)
	}
	if !w.hasEvent("connect timed out: srv-a") {
		t.Fatalf("no connect-timeout event; events: %+v", w.c.Events())
	}
	if st := w.c.State("srv-a"); st != protocol.StIdle {
		t.Fatalf("state = %v, want idle after abandoned connect", st)
	}
	found := false
	for _, e := range w.cscope.Trace().Events() {
		if e.Kind == obs.EvCtrlTimeout {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvCtrlTimeout trace event")
	}
}

// TestChaosDeterministic replays the partition scenario twice and expects
// identical client event logs: the whole fault schedule is a pure function
// of the seed and the virtual clock.
func TestChaosDeterministic(t *testing.T) {
	run := func() []string {
		w := newWorld(t,
			server.Options{Grace: 20 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
			client.Options{},
			"srv-a", "srv-b")
		w.connectAndPlay(t, "srv-a")
		w.net.AddPartition("laptop", "srv-a", w.now(), 5*time.Second)
		w.run(15 * time.Second)
		var log []string
		for _, e := range w.c.Events() {
			log = append(log, e.At.Sub(clock.Epoch).String()+" "+e.What)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event logs differ in length: %d vs %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestStaleHeartbeatKeepsSession pins the heartbeat-mismatch fix: a beat
// carrying a stale SessionID from an address that holds a live session (a
// delayed frame from before a reconnect, or a client racing a resume) must
// not be acked OK=false — that ack means "I don't know you" and sends a
// perfectly healthy client into suspend and failover. The server must
// recognize the live session behind the address, ack OK=true with the
// session's current ID, and count the mismatch.
func TestStaleHeartbeatKeepsSession(t *testing.T) {
	w := newWorld(t,
		server.Options{Grace: 20 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
		client.Options{},
		"srv-a", "srv-b")
	w.connectAndPlay(t, "srv-a")

	// Forge a heartbeat from the client's control address with a session
	// ID the server never issued.
	w.net.Send(netsim.Packet{
		From:     netsim.MakeAddr("laptop", 6000),
		To:       netsim.MakeAddr("srv-a", server.ControlPort),
		Payload:  protocol.MustEncodeReq(protocol.MsgHeartbeat, 0, protocol.Heartbeat{SessionID: "srv-a-sess-9999"}),
		Reliable: true,
	})
	w.run(5 * time.Second)

	if got := w.scopes["srv-a"].Counter("server_stale_heartbeats").Value(); got == 0 {
		t.Fatal("server did not count the stale heartbeat")
	}
	// Pre-fix, the OK=false ack made the client declare srv-a dead.
	if got := w.cscope.Counter("client_liveness_losses").Value(); got != 0 {
		t.Fatalf("client_liveness_losses = %d, want 0: a stale heartbeat must not read as a dead server", got)
	}
	if got := w.cscope.Counter("client_failovers").Value(); got != 0 {
		t.Fatalf("client_failovers = %d, want 0", got)
	}
	if got := w.cscope.Counter("client_sessions_resumed").Value(); got != 0 {
		t.Fatalf("client_sessions_resumed = %d, want 0 (no spurious recovery)", got)
	}
	if st := w.c.State("srv-a"); st != protocol.StViewing {
		t.Fatalf("state after stale heartbeat = %v, want viewing", st)
	}
}

// TestUserPauseSurvivesSuspendAndRecovery pins the pause/park split: a user
// pause must survive an involuntary liveness suspend. The client recovers
// into the PAUSED presentation (not playback), the server keeps the sender
// user-paused across park/unpark (zero frames for the whole window), and a
// later user resume picks the playout back up.
func TestUserPauseSurvivesSuspendAndRecovery(t *testing.T) {
	w := newWorld(t,
		server.Options{Grace: 20 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3},
		client.Options{},
		"srv-a", "srv-b")
	w.connectAndPlay(t, "srv-a")

	w.c.Pause()
	w.run(time.Second)
	if st := w.c.State("srv-a"); st != protocol.StPaused {
		t.Fatalf("state after pause = %v, want paused", st)
	}
	frames := w.scopes["srv-a"].Counter("server_media_frames_sent")
	base := frames.Value()

	w.net.AddPartition("laptop", "srv-a", w.now(), 5*time.Second)
	w.run(5 * time.Second)
	if st := w.c.State("srv-a"); st != protocol.StSuspended {
		t.Fatalf("state mid-partition = %v, want suspended", st)
	}

	w.run(10 * time.Second)
	// Recovered — but into the paused presentation the user left behind.
	if st := w.c.State("srv-a"); st != protocol.StPaused {
		t.Fatalf("state after heal = %v, want paused (recovery must not auto-resume)", st)
	}
	if !playerPaused(w.c) {
		t.Fatal("player resumed by recovery despite the user's pause")
	}
	// The server transmitted nothing across pause → suspend → recover: the
	// suspend parked an already-paused sender and the reattach unparked it
	// without clearing the user pause.
	if got := frames.Value(); got != base {
		t.Fatalf("server sent %d frames while user-paused across the outage", got-base)
	}

	w.c.Resume()
	w.run(2 * time.Second)
	if st := w.c.State("srv-a"); st != protocol.StViewing {
		t.Fatalf("state after resume = %v, want viewing", st)
	}
	if playerPaused(w.c) {
		t.Fatal("player still paused after user resume")
	}
	if frames.Value() == base {
		t.Fatal("no frames after the user resumed")
	}
	// The interrupted lecture still plays out to completion.
	w.run(40 * time.Second)
	rep := w.c.Player().Report()
	if n := rep.Streams["n"]; n.Plays == 0 {
		t.Fatalf("no audio plays after pause-spanning recovery: %+v", n)
	}
}

// TestMalformedReplyIsALoss: a server that answers every connect with a
// frame that does not decode, or with a type the client is never sent,
// must look to the client like one that never answers. The connect
// retransmits, then times out through its onFail, instead of the first bad
// reply resolving the request whose ID it echoes and stranding the client
// in connecting.
func TestMalformedReplyIsALoss(t *testing.T) {
	// Each reply echoes the connect's ID under the type byte tag; body, when
	// set, replaces its JSON.
	for _, tc := range []struct {
		name, body string
		tag        protocol.MsgType
	}{
		{"bad-json", "{bad json", protocol.MsgConnectResult},
		{"reserved-tag", "", protocol.MsgResume + 1},
		{"request-tag", "", protocol.MsgConnect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, server.Options{}, client.Options{})
			ctrl := netsim.MakeAddr("srv-bad", server.ControlPort)
			connects := 0
			w.net.Listen(ctrl, func(p netsim.Packet) {
				mt, reqID, _, err := protocol.DecodeReq(p.Payload)
				if err != nil || mt != protocol.MsgConnect {
					return
				}
				connects++
				reply := protocol.MustEncodeReq(protocol.MsgConnectResult, reqID, protocol.ConnectResult{OK: true})
				reply[0] = byte(tc.tag)
				if tc.body != "" {
					reply = append(reply[:5], tc.body...)
				}
				w.net.Send(netsim.Packet{From: ctrl, To: p.From, Payload: reply, Reliable: true})
			})
			w.c.Connect("srv-bad")
			w.run(60 * time.Second)

			if st := w.c.State("srv-bad"); st != protocol.StIdle {
				t.Fatalf("state = %v, want idle after the connect timed out", st)
			}
			if connects < 2 {
				t.Fatalf("server saw %d connects, want retransmissions", connects)
			}
			if got := w.cscope.Counter("client_ctrl_decode_errors").Value(); got != int64(connects) {
				t.Fatalf("client_ctrl_decode_errors = %d, want one per reply (%d)", got, connects)
			}
			if got := w.cscope.Counter("client_ctrl_timeouts").Value(); got != 1 {
				t.Fatalf("client_ctrl_timeouts = %d, want 1", got)
			}
			if !slices.ContainsFunc(w.cscope.Trace().Events(), func(e obs.Event) bool { return e.Kind == obs.EvCtrlDecodeError }) {
				t.Fatal("no EvCtrlDecodeError trace event")
			}
		})
	}
}
