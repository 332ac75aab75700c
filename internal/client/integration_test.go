package client

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/hml"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
	"repro/internal/server"
)

// world is a complete simulated deployment: servers, one client, a shared
// user database, and the virtual clock driving everything.
type world struct {
	clk     *clock.Virtual
	net     *netsim.Network
	users   *auth.DB
	servers map[string]*server.Server
	scopes  map[string]*obs.Scope
	c       *Client
}

func newWorld(t testing.TB, link netsim.LinkConfig, copts Options, sopts server.Options, serverNames ...string) *world {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1234)
	net.SetDefaultLink(link)
	users := auth.NewDB()
	fed, err := cluster.New(clk, net, users, cluster.Config{Servers: serverNames, ServerOptions: sopts})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{clk: clk, net: net, users: users, servers: fed.Servers, scopes: fed.Scopes}
	t.Cleanup(func() { w.noIllegalInputs(t) })
	if copts.User == "" {
		copts.User = "alice"
		copts.Password = "pw"
	}
	c, err := New("laptop", clk, net, copts)
	if err != nil {
		t.Fatal(err)
	}
	w.c = c
	return w
}

func (w *world) subscribe(t testing.TB, user, pw string) {
	t.Helper()
	if err := w.users.Subscribe(auth.User{
		Name: user, Password: pw, RealName: "Test User",
		Email: user + "@example.gr", Class: qos.Standard,
	}, w.clk.Now()); err != nil {
		t.Fatal(err)
	}
}

func (w *world) run(d time.Duration) { w.clk.RunFor(d) }

// noIllegalInputs fails the test when a server refused a Figure 4 input:
// every test in this file is a happy path, so client and server must agree
// on each session's state throughout.
func (w *world) noIllegalInputs(t testing.TB) {
	t.Helper()
	for name, sc := range w.scopes {
		if n := sc.Counter("server_illegal_inputs").Value(); n != 0 {
			for _, e := range sc.Trace().EventsAppend(nil) {
				if e.Kind == obs.EvIllegalInput {
					t.Errorf("%s: %s", name, e.Note)
				}
			}
			t.Errorf("%s refused %d Figure 4 inputs", name, n)
		}
	}
}

const shortAV = `<TITLE>short av</TITLE>
<TEXT>narrated clip</TEXT>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=5> </AU_VI>`

func putDoc(t testing.TB, s *server.Server, name, src string) {
	t.Helper()
	if err := s.Database().Put(name, src, "test doc"); err != nil {
		t.Fatal(err)
	}
}

func TestFullSessionEndToEnd(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: false}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)

	w.c.Connect("server-a")
	w.run(time.Second)
	if lc := w.c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect result = %+v (err %q)", lc, w.c.LastError())
	}
	if w.c.State("server-a") != protocol.StBrowsing {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}

	w.c.RequestTopics()
	w.run(time.Second)
	tops := w.c.Topics()
	if len(tops) != 1 || tops[0].Name != "clip" || tops[0].Server != "server-a" {
		t.Fatalf("topics = %+v", tops)
	}

	w.c.RequestDoc("clip")
	w.run(15 * time.Second)
	if w.c.State("server-a") != protocol.StBrowsing {
		t.Fatalf("post-presentation state = %v", w.c.State("server-a"))
	}
	rep := w.c.Player().Report()
	a := rep.Streams["n"]
	v := rep.Streams["cv"]
	// 5s audio at 20ms = 250 expected; video at 40ms = 125.
	if a.Plays < 240 || v.Plays < 118 {
		t.Fatalf("plays a=%d/%d v=%d/%d gaps a=%d v=%d", a.Plays, a.Expected, v.Plays, v.Expected, a.Gaps, v.Gaps)
	}
	if d := w.c.StartupDelay(); d <= 0 || d > 3*time.Second {
		t.Fatalf("startup delay = %v", d)
	}
	if got := w.c.History(); len(got) != 1 {
		t.Fatalf("history = %v", got)
	}
	w.c.Disconnect()
	w.run(time.Second)
	if w.servers["server-a"].Sessions() != 0 {
		t.Fatal("server session not closed")
	}
	// Pricing charged on disconnect.
	if w.users.Balance("alice") <= 0 {
		t.Fatal("no charge recorded")
	}
}

func TestSubscriptionFlow(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{User: "newbie", Password: "np"}, server.Options{}, "server-a")
	w.c.Connect("server-a")
	w.run(time.Second)
	if lc := w.c.LastConnect(); lc == nil || lc.OK || !lc.NeedSubscription {
		t.Fatalf("connect = %+v", lc)
	}
	if w.c.State("server-a") != protocol.StSubscribing {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}
	w.c.Subscribe(protocol.SubscriptionForm{
		User: "newbie", Password: "np", RealName: "New User",
		Address: "Patras", Email: "new@uni.gr", Phone: "123",
	})
	w.run(time.Second)
	if ls := w.c.LastSubscribe(); ls == nil || !ls.OK {
		t.Fatalf("subscribe = %+v", ls)
	}
	if w.c.State("server-a") != protocol.StBrowsing {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}
	if _, err := w.users.Authenticate("newbie", "np", w.clk.Now()); err != nil {
		t.Fatal("user not in the central database")
	}
}

func TestTimedLinkAutoNavigationSameServer(t *testing.T) {
	first := `<TITLE>part one</TITLE>
<AU SOURCE=au/a ID=pa STARTIME=0 DURATION=3> </AU>
<HLINK HREF=part-two AT=4 KIND=SEQ> </HLINK>`
	w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: true}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "part-one", first)
	putDoc(t, w.servers["server-a"], "part-two", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("part-one")
	w.run(20 * time.Second)
	hist := w.c.History()
	if len(hist) != 2 || hist[0] != "part-one" || hist[1] != "part-two" {
		t.Fatalf("history = %v", hist)
	}
	// The second presentation must actually have played.
	rep := w.c.Player().Report()
	if rep.Streams["cv"].Plays < 100 {
		t.Fatalf("second doc plays = %d", rep.Streams["cv"].Plays)
	}
}

// TestCrossServerSuspendAndReturn follows an explorational link to
// server-b from each state a user can leave from: the source is suspended
// per Figure 4 (browsing goes through request-doc first), the target plays
// the document, and the source's session expires after its grace period.
func TestCrossServerSuspendAndReturn(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(w *world) // leaves the client in the state under test
		want protocol.State
	}{
		{"viewing", func(w *world) { w.c.RequestDoc("intro"); w.run(2 * time.Second) }, protocol.StViewing},
		{"browsing", func(w *world) {}, protocol.StBrowsing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: false},
				server.Options{Grace: 10 * time.Second}, "server-a", "server-b")
			w.subscribe(t, "alice", "pw")
			putDoc(t, w.servers["server-a"], "intro", shortAV)
			putDoc(t, w.servers["server-b"], "extra", shortAV)

			w.c.Connect("server-a")
			w.run(time.Second)
			tc.at(w)
			if got := w.c.State("server-a"); got != tc.want {
				t.Fatalf("state before the link = %v, want %v", got, tc.want)
			}
			w.c.FollowLink(scenario.Link{Target: "extra", Host: "server-b"})
			w.run(3 * time.Second)
			if w.c.State("server-a") != protocol.StSuspended {
				t.Fatalf("old state = %v", w.c.State("server-a"))
			}
			if w.c.SuspendToken("server-a") == "" {
				t.Fatal("no resume token held")
			}
			if w.c.State("server-b") != protocol.StViewing && w.c.State("server-b") != protocol.StRequesting {
				t.Fatalf("new state = %v", w.c.State("server-b"))
			}
			w.run(10 * time.Second) // past server-a's 10s grace
			if got := w.c.State("server-a"); got != protocol.StDisconnected {
				t.Fatalf("suspended session after grace = %v", got)
			}
			if !strings.Contains(w.c.LastError(), "grace") {
				t.Fatalf("expiry notice = %q", w.c.LastError())
			}
			if w.servers["server-a"].Sessions() != 0 {
				t.Fatal("server-a kept the expired session")
			}
		})
	}
}

func TestReturnWithinGrace(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: false},
		server.Options{Grace: 60 * time.Second}, "server-a", "server-b")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "intro", shortAV)
	putDoc(t, w.servers["server-b"], "extra", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("intro")
	w.run(2 * time.Second)
	w.c.FollowLink(scenario.Link{Target: "extra", Host: "server-b"})
	w.run(8 * time.Second)
	// Return within grace: the connect presents the resume token, so there
	// is no re-authentication and the session is preserved.
	w.c.Connect("server-a")
	w.run(time.Second)
	if w.c.State("server-a") != protocol.StBrowsing {
		t.Fatalf("state after return = %v", w.c.State("server-a"))
	}
	if w.servers["server-a"].Sessions() != 1 {
		t.Fatal("server-a session lost")
	}
	// The resume consumed the token.
	if w.c.SuspendToken("server-a") != "" {
		t.Fatal("token not consumed")
	}
}

// TestReturnStopsSuspendedFlows: a return with the resume token lands in
// browsing on both ends, so the source stops streaming the presentation it
// suspended (the client released those media ports when it left), and the
// next request there plays.
func TestReturnStopsSuspendedFlows(t *testing.T) {
	long := `<TITLE>long</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=20> </AU_VI>`
	w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: false},
		server.Options{Grace: 60 * time.Second}, "server-a", "server-b")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "intro", long)
	putDoc(t, w.servers["server-b"], "extra", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("intro")
	w.run(2 * time.Second)
	w.c.FollowLink(scenario.Link{Target: "extra", Host: "server-b"})
	w.run(8 * time.Second) // extra plays out on server-b
	w.c.Connect("server-a")
	w.run(time.Second)
	if got := w.c.State("server-a"); got != protocol.StBrowsing {
		t.Fatalf("state after return = %v", got)
	}
	media := 0
	for p := 7000; p < 7010; p++ {
		w.net.Listen(netsim.MakeAddr("laptop", p), func(pkt netsim.Packet) {
			if pkt.From.Host() == "server-a" {
				media++
			}
		})
	}
	w.run(5 * time.Second)
	if media != 0 {
		t.Fatalf("server-a sent %d media packets to a client browsing there", media)
	}
	for p := 7000; p < 7010; p++ {
		w.net.Listen(netsim.MakeAddr("laptop", p), nil)
	}
	w.c.RequestDoc("intro")
	w.run(25 * time.Second)
	if got := w.c.History(); len(got) != 3 || got[2] != "intro" {
		t.Fatalf("history = %v (err %q)", got, w.c.LastError())
	}
	if v := w.c.Player().Report().Streams["cv"]; v.Plays < v.Expected*9/10 {
		t.Fatalf("intro after the return plays %d/%d", v.Plays, v.Expected)
	}
}

// TestRequestWhilePaused: every way of asking for a document while paused —
// reload, a request, back, forward, a link on the same server — ends the
// paused presentation and plays the requested one (Figure 4's paused
// --request-doc--> requesting).
func TestRequestWhilePaused(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *Client)
		want string
	}{
		{"reload", (*Client).Reload, "two"},
		{"request", func(c *Client) { c.RequestDoc("one") }, "one"},
		{"back", func(c *Client) { c.Back() }, "one"},
		{"forward", func(c *Client) { c.Forward() }, "three"},
		{"link", func(c *Client) { c.FollowLink(scenario.Link{Target: "three", Host: "server-a"}) }, "three"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
			w.subscribe(t, "alice", "pw")
			for _, doc := range []string{"one", "two", "three"} {
				putDoc(t, w.servers["server-a"], doc, shortAV)
			}
			w.c.Connect("server-a")
			w.run(time.Second)
			for _, doc := range []string{"one", "two", "three"} {
				w.c.RequestDoc(doc)
				w.run(2 * time.Second)
			}
			w.c.Back() // to "two", with somewhere to go either way
			w.run(2 * time.Second)
			w.c.Pause()
			w.run(time.Second)
			if got := w.c.State("server-a"); got != protocol.StPaused {
				t.Fatalf("state before the request = %v", got)
			}
			paused := w.c.Player()
			tc.op(w.c)
			w.run(12 * time.Second)
			if e := w.c.LastError(); e != "" {
				t.Fatalf("request while paused: %s", e)
			}
			if got := w.c.History(); got[len(got)-1] != tc.want || len(got) != 5 {
				t.Fatalf("history = %v, want %s played last", got, tc.want)
			}
			if w.c.Player() == paused || !paused.Finished() {
				t.Fatal("the paused presentation was not replaced")
			}
			if a := w.c.Player().Report().Streams["n"]; a.Plays < a.Expected*9/10 {
				t.Fatalf("%s plays %d/%d", tc.want, a.Plays, a.Expected)
			}
		})
	}
}

func TestPauseResumeThroughProtocol(t *testing.T) {
	long := `<TITLE>long</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=20> </AU_VI>`
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "long", long)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("long")
	w.run(5 * time.Second)
	w.c.Pause()
	w.run(time.Second)
	if w.c.State("server-a") != protocol.StPaused {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}
	// Server stops sending while paused: buffers stop growing.
	buf := w.c.Buffers().Get("cv")
	occBefore := buf.Occupancy()
	w.run(5 * time.Second)
	occAfter := buf.Occupancy()
	if occAfter > occBefore+200*time.Millisecond {
		t.Fatalf("buffer grew during pause: %v → %v", occBefore, occAfter)
	}
	w.c.Resume()
	w.run(30 * time.Second)
	rep := w.c.Player().Report()
	v := rep.Streams["cv"]
	if v.Plays < v.Expected*9/10 {
		t.Fatalf("plays after resume = %d/%d (gaps %d)", v.Plays, v.Expected, v.Gaps)
	}
}

func TestQoSGradingUnderCongestion(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{FeedbackInterval: 500 * time.Millisecond},
		server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	long := `<TITLE>graded</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=30> </AU_VI>`
	putDoc(t, w.servers["server-a"], "graded", long)
	// Heavy loss on the media direction from 5s to 20s.
	w.net.AddPhase("server-a", "laptop", netsim.Phase{
		Start: 5 * time.Second, Duration: 15 * time.Second, LossFactor: 300,
	})
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("graded")
	w.run(40 * time.Second)
	mgr := w.servers["server-a"].QoSManager(netsim.MakeAddr("laptop", 6000))
	if mgr == nil {
		t.Fatal("no qos manager")
	}
	acts := mgr.Actions()
	degrades := 0
	videoFirst := true
	for i, a := range acts {
		if a.Kind == qos.ActDegrade {
			degrades++
			if i == 0 && a.StreamID != "cv" {
				videoFirst = false
			}
		}
	}
	if degrades == 0 {
		t.Fatalf("no degrades under 300× loss; actions = %+v", acts)
	}
	if !videoFirst {
		t.Fatalf("first degrade hit %v, want video", acts[0].StreamID)
	}
	// The client saw reduced-quality frames.
	sawDegraded := false
	for _, ev := range w.c.Display().Events() {
		if ev.Kind == playout.EvPlay && ev.StreamID == "cv" && ev.Frame.Level > 0 {
			sawDegraded = true
			break
		}
	}
	if !sawDegraded {
		t.Fatal("client never played a degraded frame")
	}
}

func TestFederatedSearch(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a", "server-b", "server-c")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "db-intro", `<TITLE>Databases introduction</TITLE><TEXT>relational model</TEXT>`)
	putDoc(t, w.servers["server-b"], "db-adv", `<TITLE>Advanced databases</TITLE><TEXT>query optimization</TEXT>`)
	putDoc(t, w.servers["server-b"], "nets", `<TITLE>Networking</TITLE><TEXT>packets and routers</TEXT>`)
	putDoc(t, w.servers["server-c"], "db-lab", `<TITLE>Lab</TITLE><TEXT>hands-on database exercises</TEXT>`)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.Search("database")
	w.run(3 * time.Second)
	hits, done := w.c.SearchResults()
	if !done {
		t.Fatal("search never completed")
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	servers := map[string]int{}
	for _, h := range hits {
		servers[h.Server]++
	}
	if servers["server-a"] != 1 || servers["server-b"] != 1 || servers["server-c"] != 1 {
		t.Fatalf("per-server hits = %v", servers)
	}

	// A browser that never asked for a document has no presentation: its
	// accessors read zero, Pause, Resume and Reload do nothing, and
	// Disconnect ends the session.
	if w.c.Display() != nil || w.c.Player() != nil || w.c.Buffers() != nil ||
		w.c.Monitor() != nil || w.c.Scenario() != nil || w.c.StartupDelay() != 0 {
		t.Fatal("a browser with no document reports a presentation")
	}
	sent, _, _, _ := w.net.Totals()
	events := len(w.c.Events())
	w.c.Pause()
	w.c.Resume()
	w.c.Reload()
	if got, _, _, _ := w.net.Totals(); got != sent || len(w.c.Events()) != events {
		t.Fatalf("with no document, pause/resume/reload sent %d packets and logged %v", got-sent, w.c.Events()[events:])
	}
	if got := w.c.State("server-a"); got != protocol.StBrowsing {
		t.Fatalf("state after pause/resume/reload with no document = %v", got)
	}
	w.c.Disconnect()
	if got := w.c.State("server-a"); got != protocol.StDisconnected || w.c.CurrentServer() != "" {
		t.Fatalf("after disconnect: state %v, current server %q", got, w.c.CurrentServer())
	}
}

func TestAdmissionRejection(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(),
		Options{Class: qos.Economy, PeakRate: 5_000_000, MinRate: 5_000_000},
		server.Options{Capacity: 1_000_000}, "server-a")
	w.subscribe(t, "alice", "pw")
	w.c.Connect("server-a")
	w.run(time.Second)
	lc := w.c.LastConnect()
	if lc == nil || lc.OK {
		t.Fatalf("connect = %+v", lc)
	}
	if w.c.State("server-a") != protocol.StIdle {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}
	if !strings.Contains(lc.Reason, "capacity") {
		t.Fatalf("reason = %q", lc.Reason)
	}
}

func TestDocRequestFailure(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("missing-doc")
	w.run(time.Second)
	if w.c.State("server-a") != protocol.StBrowsing {
		t.Fatalf("state = %v", w.c.State("server-a"))
	}
	if !strings.Contains(w.c.LastError(), "not found") {
		t.Fatalf("err = %q", w.c.LastError())
	}
}

func TestDisableMediaStopsStream(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	long := `<TITLE>long</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=20> </AU_VI>`
	putDoc(t, w.servers["server-a"], "long", long)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("long")
	w.run(3 * time.Second)
	w.c.DisableMedia("cv")
	w.run(time.Second)
	buf := w.c.Buffers().Get("cv")
	occ := buf.Occupancy()
	w.run(5 * time.Second)
	// The buffer drains (playout continues) but receives nothing new.
	if buf.Occupancy() > occ {
		t.Fatalf("disabled stream still receiving: %v → %v", occ, buf.Occupancy())
	}
	// Audio continues unharmed.
	rep := w.c.Player().Report()
	if rep.Streams["n"].Plays == 0 {
		t.Fatal("audio stopped too")
	}
}

func TestLessonScaleSession(t *testing.T) {
	// A multi-slide Hermes lesson end to end.
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "lesson", hml.LessonSource("algo", 3, 10*time.Second))
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("lesson")
	w.run(45 * time.Second)
	rep := w.c.Player().Report()
	// Every slide's image played.
	for i := 1; i <= 3; i++ {
		id := "algo-img" + string(rune('0'+i))
		if rep.Streams[id].Plays != 1 {
			t.Errorf("image %s plays = %d", id, rep.Streams[id].Plays)
		}
	}
	// All six AV halves played substantially.
	for i := 1; i <= 3; i++ {
		for _, pfx := range []string{"algo-au", "algo-vi"} {
			id := pfx + string(rune('0'+i))
			sr := rep.Streams[id]
			if sr.Plays < sr.Expected*8/10 {
				t.Errorf("%s plays = %d/%d", id, sr.Plays, sr.Expected)
			}
		}
	}
}

func TestClientIgnoresGarbageMediaPackets(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(time.Second)
	// Inject garbage at the client's media and control ports mid-session.
	for i := 0; i < 20; i++ {
		w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", 7000),
			Payload: []byte{0xff, 0xfe, 0xfd}})
		w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", 7001),
			Payload: nil})
		w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", 6000),
			Payload: []byte{0x01, '{'}, Reliable: true})
		// A validly-framed RTP packet with an unknown SSRC.
		alien := append(rtp.AppendHeader(nil, false, rtp.PTMPEG, uint16(i), 0, 0xDEAD), 'x')
		w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", 7000),
			Payload: alien})
	}
	w.run(15 * time.Second)
	rep := w.c.Player().Report()
	a := rep.Streams["n"]
	if a.Plays < a.Expected*9/10 {
		t.Fatalf("garbage disrupted playback: %d/%d", a.Plays, a.Expected)
	}
}

// TestClientSurvivesBadFragmentGeometry injects one RTP packet on an
// announced stream whose frame header places fragment 65534 of 65535 in a
// 10-byte frame, with no data. It used to pass the fragment-length check and
// panic slicing the frame's reassembly scratch out of range; an observer
// keeps that scratch in play.
func TestClientSurvivesBadFragmentGeometry(t *testing.T) {
	observe := Options{OnFrame: func(string, media.FrameHeader, []byte) {}}
	w := newWorld(t, netsim.DefaultLAN(), observe, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(time.Second)
	ann, ok := w.c.StreamInfo("cv")
	if !ok {
		t.Fatal("no announce for stream cv")
	}
	hdr := media.FrameHeader{Index: 1 << 30, FrameSize: 10, FragCount: 65535, Frag: 65534}
	bad := hdr.AppendTo(rtp.AppendHeader(nil, false, rtp.PTMPEG, 0, 0, ann.SSRC))
	w.net.Send(netsim.Packet{From: "attacker:1", To: netsim.MakeAddr("laptop", ann.Port),
		Payload: bad})
	w.run(10 * time.Second)
	if v := w.c.Player().Report().Streams["cv"]; v.Plays < v.Expected*9/10 {
		t.Fatalf("bad header disrupted playback: %d/%d", v.Plays, v.Expected)
	}
}

func TestFragmentLossDropsWholeFrame(t *testing.T) {
	// A lossy link loses individual fragments; the reassembler must never
	// deliver a frame with missing fragments (it stays incomplete and the
	// slot shows as a gap), and playback continues afterwards.
	w := newWorld(t, netsim.LinkConfig{Bandwidth: 8_000_000, Delay: 10 * time.Millisecond, Loss: 0.03},
		Options{}, server.Options{DisableGrading: true}, "server-a")
	w.subscribe(t, "alice", "pw")
	long := `<TITLE>long</TITLE>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=20> </AU_VI>`
	putDoc(t, w.servers["server-a"], "long", long)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("long")
	w.run(30 * time.Second)
	rep := w.c.Player().Report()
	v := rep.Streams["cv"]
	// With ~3% packet loss and ~8 fragments per frame, frame loss ≈ 20%:
	// expect a sizable but not total gap count, and plays + gaps ≈ expected.
	if v.Gaps == 0 {
		t.Fatal("no gaps despite fragment loss")
	}
	if v.Plays == 0 {
		t.Fatal("playback died")
	}
	if v.Plays+v.Gaps < v.Expected*9/10 {
		t.Fatalf("slots unaccounted: plays %d + gaps %d vs expected %d", v.Plays, v.Gaps, v.Expected)
	}
}

func TestClientReloadRestartsPresentation(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(3 * time.Second)
	w.c.Reload()
	w.run(12 * time.Second)
	if got := w.c.History(); len(got) != 2 || got[0] != "clip" || got[1] != "clip" {
		t.Fatalf("history = %v", got)
	}
	rep := w.c.Player().Report()
	if rep.Streams["n"].Plays < rep.Streams["n"].Expected*9/10 {
		t.Fatalf("reloaded presentation incomplete: %d/%d", rep.Streams["n"].Plays, rep.Streams["n"].Expected)
	}
}

// TestStaleTimerCallbacksDoNothing calls the fill, end and feedback
// callbacks of closed presentations after the next document arrived, as a
// wall-clock timer that fired while its presentation closed does: one that
// had started playing, and one closed before its buffers filled. They arm
// no timer, send nothing and do not start the new presentation.
func TestStaleTimerCallbacksDoNothing(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	for _, doc := range []string{"a", "b", "c"} {
		putDoc(t, w.servers["server-a"], doc, shortAV)
	}
	w.c.Connect("server-a")
	w.run(time.Second)
	// next requests doc and steps the clock until its DocResponse is
	// handled, before any of its media can arrive.
	next := func(doc string) *presentation {
		t.Helper()
		old := w.c.pres
		w.c.RequestDoc(doc)
		for i := 0; w.c.pres == old; i++ {
			if i == 10_000 || !w.clk.Step() {
				t.Fatalf("no DocResponse for %s", doc)
			}
		}
		return old
	}
	stale := func(p *presentation) {
		t.Helper()
		pending := w.clk.Pending()
		sent, _, _, _ := w.net.Totals()
		w.c.mu.Lock()
		w.c.pollFillLocked(p)
		w.c.mu.Unlock()
		w.c.onPresentationEnd(p)
		w.c.sendFeedback(p)
		if got := w.clk.Pending(); got != pending {
			t.Errorf("stale callbacks of %s armed %d timers", p.doc.Name, got-pending)
		}
		if got, _, _, _ := w.net.Totals(); got != sent {
			t.Errorf("stale callbacks of %s sent %d packets", p.doc.Name, got-sent)
		}
		if w.c.pres.started || w.c.StartupDelay() != 0 {
			t.Errorf("stale callbacks of %s started %s", p.doc.Name, w.c.pres.doc.Name)
		}
	}

	next("a")
	w.run(1500 * time.Millisecond)
	a := next("b")
	if !a.started || !a.closed {
		t.Fatalf("a: started %v, closed %v; want both", a.started, a.closed)
	}
	stale(a)
	b := next("c")
	if b.started || !b.closed {
		t.Fatalf("b: started %v, closed %v; want closed before it started", b.started, b.closed)
	}
	stale(b)
	stale(a)
	w.run(3 * time.Second)
	if d := w.c.StartupDelay(); d <= 0 || d > 3*time.Second {
		t.Fatalf("c's startup delay = %v", d)
	}
}

// TestStaleHeartbeatTickDoesNothing calls the tick of a replaced heartbeat
// loop, as a wall-clock tick that fired while startHeartbeatLocked stopped
// its timer does. It sends nothing, arms no timer and leaves the new loop
// alone: no beat marked unanswered, its timer still armed, and every beat
// it sends afterwards answered.
func TestStaleHeartbeatTickDoesNothing(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	w.c.Connect("server-a")
	w.run(1500 * time.Millisecond)
	w.c.mu.Lock()
	stale := w.c.hbLoop
	w.c.startHeartbeatLocked()
	loop := w.c.hbTimer
	w.c.mu.Unlock()
	pending := w.clk.Pending()
	sent, _, _, _ := w.net.Totals()
	w.c.heartbeatTick(stale)
	if got := w.clk.Pending(); got != pending {
		t.Errorf("the stale tick armed %d timers", got-pending)
	}
	if got, _, _, _ := w.net.Totals(); got != sent {
		t.Errorf("the stale tick sent %d packets", got-sent)
	}
	w.c.mu.Lock()
	if w.c.hbAwait || w.c.hbTimer != loop {
		t.Errorf("the stale tick took over the new loop: awaiting %v, timer replaced %v", w.c.hbAwait, w.c.hbTimer != loop)
	}
	w.c.mu.Unlock()
	w.run(5 * time.Second)
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if w.c.hbMisses != 0 || w.c.hbTimer == nil {
		t.Errorf("after the stale tick: %d misses, timer armed %v", w.c.hbMisses, w.c.hbTimer != nil)
	}
}

// TestMoveKeepsParsedScenario moves a viewer to another server that holds
// the same document text: the client keeps the scenario it parsed, and the
// presentation plays on. A different document gets a scenario of its own.
func TestMoveKeepsParsedScenario(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{AutoFollowLinks: false},
		server.Options{Grace: 10 * time.Second}, "server-a", "server-b")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	putDoc(t, w.servers["server-b"], "clip", shortAV)
	putDoc(t, w.servers["server-b"], "other", strings.Replace(shortAV, "short av", "other av", 1))
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(2 * time.Second)
	sc := w.c.Scenario()
	if sc == nil || sc.Src != shortAV {
		t.Fatalf("scenario before the move = %+v", sc)
	}

	w.c.FollowLink(scenario.Link{Target: "clip", Host: "server-b"})
	w.run(3 * time.Second)
	if got := w.c.State("server-b"); got != protocol.StViewing {
		t.Fatalf("server-b state = %v, want viewing (err %q)", got, w.c.LastError())
	}
	if w.c.Scenario() != sc {
		t.Fatal("the move parsed the same document text again")
	}
	if got := w.c.History(); len(got) != 2 || got[1] != "clip" {
		t.Fatalf("history = %v", got)
	}
	w.run(5 * time.Second)
	rep := w.c.Player().Report()
	if rep.Streams["n"].Plays < rep.Streams["n"].Expected*9/10 {
		t.Fatalf("presentation after the move incomplete: %d/%d", rep.Streams["n"].Plays, rep.Streams["n"].Expected)
	}

	w.c.RequestDoc("other")
	w.run(2 * time.Second)
	if got := w.c.Scenario(); got == sc || got == nil || got.Title != "other av" {
		t.Fatalf("scenario after navigating = %p %+v, want a new one titled %q", got, got, "other av")
	}
}

func TestBackAndForwardNavigation(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "one", shortAV)
	putDoc(t, w.servers["server-a"], "two", shortAV)
	putDoc(t, w.servers["server-a"], "three", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	if w.c.Back() || w.c.Forward() {
		t.Fatal("navigation possible before any document")
	}
	for _, doc := range []string{"one", "two", "three"} {
		w.c.RequestDoc(doc)
		w.run(2 * time.Second)
	}
	if len(w.c.backStack) == 0 || len(w.c.fwdStack) > 0 {
		t.Fatal("stack state wrong after three visits")
	}
	// Back: three → two.
	if !w.c.Back() {
		t.Fatal("back failed")
	}
	w.run(2 * time.Second)
	if got := w.c.History(); got[len(got)-1] != "two" {
		t.Fatalf("after back, current = %v", got)
	}
	// Back again: two → one.
	w.c.Back()
	w.run(2 * time.Second)
	if got := w.c.History(); got[len(got)-1] != "one" {
		t.Fatalf("after back ×2, current = %v", got)
	}
	if len(w.c.fwdStack) == 0 {
		t.Fatal("forward stack empty after backs")
	}
	// Forward: one → two.
	w.c.Forward()
	w.run(2 * time.Second)
	if got := w.c.History(); got[len(got)-1] != "two" {
		t.Fatalf("after forward, current = %v", got)
	}
	// A fresh navigation clears the forward stack.
	w.c.RequestDoc("three")
	w.run(2 * time.Second)
	if len(w.c.fwdStack) > 0 {
		t.Fatal("forward stack survived a new navigation")
	}
}

func TestReloadKeepsStacks(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "one", shortAV)
	putDoc(t, w.servers["server-a"], "two", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("one")
	w.run(2 * time.Second)
	w.c.RequestDoc("two")
	w.run(2 * time.Second)
	w.c.Reload()
	w.run(2 * time.Second)
	// Back still reaches "one": reload didn't push a stack entry.
	w.c.Back()
	w.run(2 * time.Second)
	if got := w.c.History(); got[len(got)-1] != "one" {
		t.Fatalf("after reload+back, current = %v", got)
	}
	if len(w.c.backStack) > 0 {
		t.Fatal("back stack should be empty at the first document")
	}
}

// TestClientToleratesDuplicatedPackets: with 30 % duplication on the media
// path, the reassembler and buffers dedupe, so every audio frame plays at
// most once and the narration stays on time. A single-fragment frame
// duplicated on the link reassembles twice; the buffer must refuse the
// second copy, or the player pops both and the audio drifts ever later.
func TestClientToleratesDuplicatedPackets(t *testing.T) {
	w := newWorld(t, netsim.LinkConfig{Bandwidth: 10_000_000, Delay: 5 * time.Millisecond,
		Jitter: 2 * time.Millisecond, Dup: 0.3}, Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(15 * time.Second)
	rep := w.c.Player().Report()
	a := rep.Streams["n"]
	if a.Plays > a.Expected {
		t.Fatalf("duplicates leaked: %d plays of %d expected", a.Plays, a.Expected)
	}
	if a.Plays < a.Expected*9/10 {
		t.Fatalf("duplication broke playback: %d/%d", a.Plays, a.Expected)
	}
	played := map[int]bool{}
	for _, ev := range w.c.Display().Events() {
		if ev.StreamID != "n" || ev.Kind != playout.EvPlay {
			continue
		}
		if played[ev.Frame.Index] {
			t.Fatalf("audio frame %d played twice", ev.Frame.Index)
		}
		played[ev.Frame.Index] = true
	}
	t.Logf("%d plays of %d frames, %d distinct; max lateness %.0f ms", a.Plays, a.Expected, len(played), a.MaxLatenessMS)
	if a.MaxLatenessMS > 100 {
		t.Fatalf("audio played up to %.0f ms late; duplicates must not delay it", a.MaxLatenessMS)
	}
	if st := w.c.Buffers().Get("n").Stats(); st.Repeated == 0 {
		t.Fatalf("no duplicate arrival refused at 30 %% duplication: %+v", st)
	}
}

func TestAnnotationsRoundTrip(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	w.c.RequestDoc("clip")
	w.run(2 * time.Second)
	w.c.Annotate("the narration drifts here")
	w.c.Annotate("great diagram")
	w.run(time.Second)
	w.c.RequestAnnotations("")
	w.run(time.Second)
	ann := w.c.Annotations()
	if ann == nil || ann.Doc != "clip" || len(ann.Records) != 2 {
		t.Fatalf("annotations = %+v", ann)
	}
	if ann.Records[0].User != "alice" || ann.Records[1].Text != "great diagram" {
		t.Fatalf("records = %+v", ann.Records)
	}
	// Explicit document name works too.
	w.c.RequestAnnotations("clip")
	w.run(time.Second)
	if got := w.c.Annotations(); got == nil || len(got.Records) != 2 {
		t.Fatalf("explicit listing = %+v", got)
	}
}

func TestStreamInfoAndSessionID(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{}, "server-a")
	w.subscribe(t, "alice", "pw")
	putDoc(t, w.servers["server-a"], "clip", shortAV)
	w.c.Connect("server-a")
	w.run(time.Second)
	if w.c.SessionID("server-a") == "" {
		t.Fatal("no session id recorded")
	}
	w.c.RequestDoc("clip")
	w.run(time.Second)
	ann, ok := w.c.StreamInfo("cv")
	if !ok || ann.SSRC == 0 || ann.Levels < 2 {
		t.Fatalf("stream info = %+v ok=%v", ann, ok)
	}
	if _, ok := w.c.StreamInfo("ghost"); ok {
		t.Fatal("phantom stream info")
	}
}

// TestClientSizeClass keeps a Client in the 896 B size class, with the 8 B
// header the allocator adds to an object of its size: a control-only
// browser fleet (connect_storm's 8 000) pays the next class, 1 024 B, on
// every browser for any field that tips it over. State that only a viewer
// needs lives in presentation, made at the first DocResponse, and state
// kept per server goes in record.
func TestClientSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Client{}); size+8 > 896 {
		t.Fatalf("Client is %d B; with its 8 B malloc header it leaves the 896 B size class", size)
	}
}
