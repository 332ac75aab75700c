package client

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
)

// TestRedirectEpisodeHopsAndGivesUp pins one admission-redirect episode end
// to end. Every server is over its bandwidth watermark, and a server names
// only peers less loaded than itself: a (80%) names b (60%); b fills to 95%
// while the client backs off, so b names a (tried) and c (90%); c names only
// a. The client hops a → b → c with half the retry timeout before the first
// hop and double that before the second, and gives up at c with no untried
// server left.
func TestRedirectEpisodeHopsAndGivesUp(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{RedirectWatermark: 0.5}, "a", "b", "c")
	w.subscribe(t, "alice", "pw")
	fill := func(host string, rate float64) {
		t.Helper()
		d := w.servers[host].Admission().Request(qos.ConnRequest{User: "load", Class: qos.Premium, PeakRate: rate})
		if d.Verdict != qos.Admitted {
			t.Fatalf("pre-fill %s: %+v", host, d)
		}
	}
	fill("a", 8_000_000)
	fill("b", 6_000_000)
	fill("c", 9_000_000)

	scope := obs.NewScope(w.clk)
	c, err := New("viewer", w.clk, w.net, Options{User: "alice", Password: "pw", Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	c.Connect("a")
	w.run(100 * time.Millisecond)
	fill("b", 3_500_000)
	w.run(5 * time.Second)

	at := map[string]time.Duration{}
	var hops []string
	epoch := time.Time{}
	for _, e := range c.Events() {
		if epoch.IsZero() {
			epoch = e.At
		}
		if _, seen := at[e.What]; !seen {
			at[e.What] = e.At.Sub(epoch)
		}
		if strings.HasPrefix(e.What, "redirect ") {
			hops = append(hops, e.What)
		}
	}
	want := []string{"redirect a → b (hop 1)", "redirect b → c (hop 2)",
		"redirect abandoned: redirected: no untried server"}
	if fmt.Sprint(hops) != fmt.Sprint(want) {
		t.Fatalf("redirect lines = %q, want %q", hops, want)
	}
	for i, hop := range []struct {
		line, connect string
		delay         time.Duration
	}{
		{want[0], "connect → b", 375 * time.Millisecond},
		{want[1], "connect → c", 750 * time.Millisecond},
	} {
		hopAt, ok1 := at[hop.line]
		connAt, ok2 := at[hop.connect]
		if !ok1 || !ok2 {
			t.Fatalf("hop %d: missing %q or %q in %v", i+1, hop.line, hop.connect, at)
		}
		if got := connAt - hopAt; got != hop.delay {
			t.Errorf("hop %d: backoff %v, want %v", i+1, got, hop.delay)
		}
	}
	if n := scope.Counter("client_redirects_followed").Value(); n != 2 {
		t.Errorf("client_redirects_followed = %d, want 2", n)
	}
	if got := c.LastError(); got != "redirected: no untried server" {
		t.Errorf("LastError = %q", got)
	}
	if got := c.CurrentServer(); got != "" {
		t.Errorf("CurrentServer = %q, want none", got)
	}
}

// dropReplies swallows every one of the next n control replies of type mt
// from host to the world's client, so the request they answer times out.
func dropReplies(w *world, host string, mt protocol.MsgType, n int) {
	w.net.DropNextMatching(n, "drop "+mt.String(), func(p netsim.Packet) bool {
		got, _, _, err := protocol.DecodeReq(p.Payload)
		return err == nil && got == mt && p.From.Host() == host && p.To.Host() == w.c.Host
	})
}

// newbieWorld is a one-server world whose client is not yet subscribed: its
// first connect asks for the subscription form.
func newbieWorld(t *testing.T) *world {
	w := newWorld(t, netsim.DefaultLAN(), Options{User: "newbie", Password: "np"}, server.Options{}, "server-a")
	w.c.Connect("server-a")
	w.run(time.Second)
	if got := w.c.State("server-a"); got != protocol.StSubscribing {
		t.Fatalf("state = %v, want subscribing", got)
	}
	return w
}

var newbieForm = protocol.SubscriptionForm{
	User: "newbie", Password: "np", RealName: "New User",
	Address: "Patras", Email: "new@uni.gr", Phone: "123",
}

// reconnects checks that a Connect after a timed-out exchange is not
// refused by the client's own table and lands in browsing with a session.
func reconnects(t *testing.T, w *world) {
	t.Helper()
	w.c.Connect("server-a")
	w.run(time.Second)
	if got := w.c.State("server-a"); got != protocol.StBrowsing || w.c.SessionID("server-a") == "" {
		t.Fatalf("after reconnect: state %v, session %q (err %q)",
			got, w.c.SessionID("server-a"), w.c.LastError())
	}
}

// TestLostSubscribeReplyDoesNotStrand loses every reply to the subscription
// form: the request times out, and the next Connect must still go through.
func TestLostSubscribeReplyDoesNotStrand(t *testing.T) {
	w := newbieWorld(t)
	dropReplies(w, "server-a", protocol.MsgSubscribeResult, 5)
	w.c.Subscribe(newbieForm)
	w.run(20 * time.Second)
	if w.c.LastSubscribe() != nil {
		t.Fatal("a subscribe reply got through")
	}
	reconnects(t, w)
}

// TestLostRehandshakeReplyDoesNotStrand loses every reply to the connect
// the browser re-sends after a subscription: the re-handshake times out,
// and the next Connect must still go through.
func TestLostRehandshakeReplyDoesNotStrand(t *testing.T) {
	w := newbieWorld(t)
	w.c.Subscribe(newbieForm)
	dropReplies(w, "server-a", protocol.MsgConnectResult, 5)
	w.run(20 * time.Second)
	if ls := w.c.LastSubscribe(); ls == nil || !ls.OK {
		t.Fatalf("subscribe = %+v", ls)
	}
	if w.c.SessionID("server-a") != "" {
		t.Fatal("a re-handshake reply got through")
	}
	reconnects(t, w)
}

// TestRedirectedLinkMovesOn follows a link to server-b while server-b is at
// its session watermark. A link carries no ticket, so server-b redirects the
// move's connect to server-c; the move goes on there and plays the linked
// document, and server-a keeps the suspended session to return to.
func TestRedirectedLinkMovesOn(t *testing.T) {
	names := []string{"server-a", "server-b", "server-c"}
	w := newWorld(t, netsim.DefaultLAN(), Options{},
		server.Options{Grace: 10 * time.Second, SessionWatermark: 1}, names...)
	w.subscribe(t, "alice", "pw")
	for _, n := range names {
		putDoc(t, w.servers[n], "extra", shortAV)
	}
	scope := obs.NewScope(w.clk)
	c, err := New("viewer", w.clk, w.net, Options{User: "alice", Password: "pw", Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	w.c.Connect("server-b") // holds server-b's one session
	c.Connect("server-a")
	w.run(time.Second)

	c.FollowLink(scenario.Link{Target: "extra", Host: "server-b"})
	w.run(3 * time.Second)
	if got := c.State("server-c"); got != protocol.StViewing {
		t.Fatalf("server-c state = %v, want viewing (err %q)", got, c.LastError())
	}
	if c.State("server-a") != protocol.StSuspended || c.SuspendToken("server-a") == "" {
		t.Fatalf("server-a = %v with token %q, want suspended", c.State("server-a"), c.SuspendToken("server-a"))
	}
	for counter, want := range map[string]int64{
		"client_redirects_followed": 1, "client_handoffs": 1, "client_handoffs_completed": 1,
	} {
		if got := scope.Counter(counter).Value(); got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
}

// TestRedirectRetriedAfterGiveUp gives up the episode of
// TestRedirectEpisodeHopsAndGivesUp, empties b, and connects to a again.
// The tried set ends with the episode, so the next one follows the hop the
// first one already took: a names b, and b admits us.
func TestRedirectRetriedAfterGiveUp(t *testing.T) {
	w := newWorld(t, netsim.DefaultLAN(), Options{}, server.Options{RedirectWatermark: 0.5}, "a", "b", "c")
	w.subscribe(t, "alice", "pw")
	fill := func(host string, rate float64) int {
		t.Helper()
		d := w.servers[host].Admission().Request(qos.ConnRequest{User: "load", Class: qos.Premium, PeakRate: rate})
		if d.Verdict != qos.Admitted {
			t.Fatalf("pre-fill %s: %+v", host, d)
		}
		return d.ConnID
	}
	fill("a", 8_000_000)
	bLoad := []int{fill("b", 6_000_000)}
	fill("c", 9_000_000)

	scope := obs.NewScope(w.clk)
	c, err := New("viewer", w.clk, w.net, Options{User: "alice", Password: "pw", Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	c.Connect("a")
	w.run(100 * time.Millisecond)
	bLoad = append(bLoad, fill("b", 3_500_000))
	w.run(5 * time.Second)
	if got := c.LastError(); got != "redirected: no untried server" {
		t.Fatalf("first episode: LastError = %q, want the give-up", got)
	}

	for _, id := range bLoad {
		w.servers["b"].Admission().Release(id)
	}
	c.Connect("a")
	w.run(5 * time.Second)
	if got := c.CurrentServer(); got != "b" || c.State("b") != protocol.StBrowsing {
		t.Fatalf("second episode: current %q in state %v, want b browsing (err %q)", got, c.State("b"), c.LastError())
	}
	if n := scope.Counter("client_redirects_followed").Value(); n != 3 {
		t.Errorf("client_redirects_followed = %d, want 3", n)
	}
}
