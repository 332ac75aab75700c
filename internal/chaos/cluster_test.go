package chaos

// Cluster-scale chaos: the federation experiments the issue pins — killing
// the serving shard mid-lesson (recovery must land on a replica actually
// holding the lesson), a flash crowd spread by in-protocol admission
// redirects without any server exceeding its watermark, partitions and
// crashes in the middle of a cross-server handoff, and the failover
// episode-reset regression. All on the virtual clock with the pinned seed.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
)

// lesson90 outlives every scenario here, so each kill or partition lands
// mid-playout.
const lesson90 = `<TITLE>federated lecture</TITLE>
<TEXT>cluster chaos subject</TEXT>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=90> </AU_VI>`

// clusterWorld is one simulated federation plus a shared client scope.
type clusterWorld struct {
	clk    *clock.Virtual
	net    *netsim.Network
	users  *auth.DB
	cl     *cluster.Cluster
	cscope *obs.Scope
}

func newClusterWorld(t testing.TB, placement server.Placement, docs map[string]string, sopts server.Options, names ...string) *clusterWorld {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, chaosSeed)
	net.SetDefaultLink(netsim.DefaultLAN())
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "alice", Password: "pw", RealName: "Chaos Tester",
		Email: "alice@example.gr", Class: qos.Standard,
	}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(clk, net, users, cluster.Config{
		Servers: names, Placement: placement, Docs: docs,
		ServerOptions: sopts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &clusterWorld{clk: clk, net: net, users: users, cl: cl,
		cscope: obs.NewScope(clk)}
}

func (w *clusterWorld) newClient(t testing.TB, host string, copts client.Options) *client.Client {
	t.Helper()
	copts.User = "alice"
	copts.Password = "pw"
	copts.PeakRate = 1_000_000
	if copts.Obs == nil {
		copts.Obs = w.cscope
	}
	c, err := client.New(host, w.clk, w.net, copts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastClient is the retry/liveness tuning the cluster scenarios use: quick
// detection and a small retransmission budget, so episodes finish inside a
// few virtual seconds.
func fastClient() client.Options {
	return client.Options{
		HeartbeatInterval: 500 * time.Millisecond,
		LivenessMisses:    2,
		RetryTimeout:      250 * time.Millisecond,
		RetryAttempts:     3,
	}
}

// sessionHost returns the server the client holds a session on, or "".
func sessionHost(c *client.Client, names ...string) string {
	for _, n := range names {
		if c.SessionID(n) != "" {
			return n
		}
	}
	return ""
}

// TestClusterShardCrashRecoversOntoReplica kills the serving shard of a
// three-server federation mid-lesson. The advertised peer set is
// per-document — lecture lives on s1+s2 only — so recovery must land on s2,
// never on the cold s3, and the send into the dead shard must carry the
// typed netsim.ErrHostDown cause.
func TestClusterShardCrashRecoversOntoReplica(t *testing.T) {
	w := newClusterWorld(t,
		server.Placement{"lecture": {"s1", "s2"}, "cold": {"s3"}},
		map[string]string{"lecture": lesson90, "cold": lesson90},
		server.Options{Grace: 5 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3},
		"s1", "s2", "s3")
	c := w.newClient(t, "laptop", fastClient())

	c.Connect("s1")
	w.clk.RunFor(time.Second)
	if lc := c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect = %+v (err %q)", lc, c.LastError())
	}
	c.RequestDoc("lecture")
	w.clk.RunFor(3 * time.Second)
	if c.State("s1") != protocol.StViewing {
		t.Fatalf("state = %v, want viewing on s1", c.State("s1"))
	}

	w.net.SetHostDown("s1", true)
	// The crash is distinguishable from a partition by its typed cause.
	err := w.net.Send(netsim.Packet{
		From: netsim.MakeAddr("probe", 1), To: netsim.MakeAddr("s1", server.ControlPort),
		Payload: []byte("x"), Reliable: true,
	})
	if !errors.Is(err, netsim.ErrHostDown) {
		t.Fatalf("send into dead host = %v, want ErrHostDown", err)
	}
	if errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("crash misreported as partition: %v", err)
	}

	w.clk.RunFor(12 * time.Second)
	if got := sessionHost(c, "s1", "s2", "s3"); got != "s2" {
		t.Fatalf("recovered onto %q, want the replica s2 (state s2=%v s3=%v, err %q)",
			got, c.State("s2"), c.State("s3"), c.LastError())
	}
	if c.State("s2") != protocol.StViewing {
		t.Fatalf("state on s2 = %v, want viewing", c.State("s2"))
	}
	if n := w.cscope.Counter("client_failovers").Value(); n < 1 {
		t.Fatalf("client_failovers = %d, want ≥1", n)
	}
}

// TestClusterFlashCrowdSpreadsByRedirects aims seven clients at one server
// of a federation whose session watermark is three. The in-protocol
// redirects must spread the crowd so every client is admitted somewhere and
// no server ends up over its watermark.
func TestClusterFlashCrowdSpreadsByRedirects(t *testing.T) {
	const watermark = 3
	names := []string{"s1", "s2", "s3"}
	w := newClusterWorld(t,
		server.Placement{"hot": names},
		map[string]string{"hot": lesson90},
		server.Options{Grace: 5 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3, SessionWatermark: watermark},
		names...)

	clients := make([]*client.Client, 7)
	for i := range clients {
		copts := fastClient()
		copts.Peers = names
		clients[i] = w.newClient(t, fmt.Sprintf("c%d", i), copts)
	}
	for _, c := range clients {
		c.Connect("s1")
		w.clk.RunFor(200 * time.Millisecond)
	}
	w.clk.RunFor(4 * time.Second)

	perServer := map[string]int{}
	for i, c := range clients {
		h := sessionHost(c, names...)
		if h == "" {
			t.Fatalf("client %d never admitted anywhere (err %q)", i, c.LastError())
		}
		perServer[h]++
	}
	for _, n := range names {
		if perServer[n] > watermark {
			t.Errorf("%s holds %d sessions, over the watermark %d (spread %v)",
				n, perServer[n], watermark, perServer)
		}
	}
	if got := w.cl.CounterTotal("cluster_redirects"); got == 0 {
		t.Error("no admission redirects issued; crowd was not spread in-protocol")
	}
	if got := w.cscope.Counter("client_redirects_followed").Value(); got == 0 {
		t.Error("no redirects followed by clients")
	}
}

// TestClusterPartitionDuringHandoff cuts the client off from the handoff
// target for three seconds, starting just before the handoff is issued. The
// ticketed connect must ride the partition out on its retransmission
// backoff and complete the handoff late — no fallback, no lost session.
func TestClusterPartitionDuringHandoff(t *testing.T) {
	w := newClusterWorld(t,
		server.Placement{"satellite": {"s2"}},
		map[string]string{"satellite": lesson90},
		server.Options{Grace: 10 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3},
		"s1", "s2")
	copts := fastClient()
	copts.RetryAttempts = 5
	c := w.newClient(t, "laptop", copts)

	c.Connect("s1")
	w.clk.RunFor(time.Second)
	if lc := c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect = %+v (err %q)", lc, c.LastError())
	}
	w.net.AddPartition("laptop", "s2", w.clk.Since(clock.Epoch), 3*time.Second)
	c.RequestDoc("satellite")
	w.clk.RunFor(8 * time.Second)

	if c.State("s2") != protocol.StViewing {
		t.Fatalf("state on s2 = %v, want viewing after partition heals (err %q)",
			c.State("s2"), c.LastError())
	}
	if got := w.cscope.Counter("client_handoffs_completed").Value(); got != 1 {
		t.Fatalf("client_handoffs_completed = %d, want 1", got)
	}
	if got := w.cscope.Counter("client_handoff_fallbacks").Value(); got != 0 {
		t.Fatalf("client_handoff_fallbacks = %d, want 0 (retry should ride the partition)", got)
	}
	// The measured handoff latency covers the partition the retries rode out.
	if max := w.cscope.Histogram("handoff_latency").Max(); max < 3*time.Second {
		t.Fatalf("handoff latency max = %v, want ≥ the 3s partition", max)
	}
}

// TestClusterHandoffTargetDownFallsBackToSource crashes the handoff target
// before the client can reach it. With no other replica holding the
// document, the client must give up on the handoff and return to the source
// on the resume token minted when its session was suspended — same session,
// nothing lost.
func TestClusterHandoffTargetDownFallsBackToSource(t *testing.T) {
	w := newClusterWorld(t,
		server.Placement{"satellite": {"s2"}},
		map[string]string{"satellite": lesson90},
		server.Options{Grace: 10 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3},
		"s1", "s2")
	c := w.newClient(t, "laptop", fastClient())

	c.Connect("s1")
	w.clk.RunFor(time.Second)
	if lc := c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect = %+v (err %q)", lc, c.LastError())
	}
	sess := c.SessionID("s1")
	if sess == "" {
		t.Fatal("no session id on s1")
	}

	w.net.SetHostDown("s2", true)
	c.RequestDoc("satellite")
	w.clk.RunFor(8 * time.Second)

	if got := w.cscope.Counter("client_handoff_fallbacks").Value(); got < 1 {
		t.Fatalf("client_handoff_fallbacks = %d, want ≥1", got)
	}
	if got := c.SessionID("s1"); got != sess {
		t.Fatalf("session on s1 = %q, want the original %q (err %q)",
			got, sess, c.LastError())
	}
	if st := c.State("s1"); st != protocol.StBrowsing {
		t.Fatalf("state on s1 = %v, want browsing after falling back", st)
	}
	if got := w.cscope.Counter("client_handoffs_completed").Value(); got != 0 {
		t.Fatalf("client_handoffs_completed = %d, want 0 (target was down)", got)
	}
}

// TestClusterLinkTargetDownFallsBackToSource is the link twin of the test
// above: the user follows a link to a lesson on s2 while s2 is down. The
// link is the same move episode as a handoff, so the client falls back to
// s1 on the resume token its suspend earned — same session, browsing, and
// still so after s1's grace period would have closed.
func TestClusterLinkTargetDownFallsBackToSource(t *testing.T) {
	w := newClusterWorld(t,
		server.Placement{"lecture": {"s1"}, "satellite": {"s2"}},
		map[string]string{"lecture": lesson90, "satellite": lesson90},
		server.Options{Grace: 10 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3},
		"s1", "s2")
	c := w.newClient(t, "laptop", fastClient())

	c.Connect("s1")
	w.clk.RunFor(time.Second)
	c.RequestDoc("lecture")
	w.clk.RunFor(2 * time.Second)
	if c.State("s1") != protocol.StViewing {
		t.Fatalf("state = %v, want viewing on s1", c.State("s1"))
	}
	sess := c.SessionID("s1")

	w.net.SetHostDown("s2", true)
	c.FollowLink(scenario.Link{Target: "satellite", Host: "s2"})
	w.clk.RunFor(8 * time.Second)

	check := func(after string) {
		t.Helper()
		if st := c.State("s1"); st != protocol.StBrowsing {
			t.Fatalf("state on s1 = %v after %s, want browsing (err %q)", st, after, c.LastError())
		}
		if got := c.SessionID("s1"); got != sess {
			t.Fatalf("session on s1 = %q after %s, want the original %q", got, after, sess)
		}
	}
	check("the fallback")
	w.clk.RunFor(20 * time.Second)
	check("s1's grace period")
	if got := w.cscope.Counter("client_handoff_fallbacks").Value(); got < 1 {
		t.Fatalf("client_handoff_fallbacks = %d, want ≥1", got)
	}
}

// TestFailedPeerRetriedInLaterEpisode is the failover episode-reset
// regression: a peer that was unreachable during one failover episode must
// be retried in a later one. Episode 1 marks s2 failed (s1 and s2 both die,
// the client lands on s3); episode 2 revives s2, kills s3, and the client
// must work its way back onto s2. If the failedPeers reset on a successful
// reconnect is ever removed, episode 2 finds every peer blacklisted and the
// session is lost — which is exactly what this test turns red on.
func TestFailedPeerRetriedInLaterEpisode(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	w := newClusterWorld(t,
		server.Placement{"lecture": names},
		map[string]string{"lecture": lesson90},
		server.Options{Grace: 4 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3},
		names...)
	c := w.newClient(t, "laptop", fastClient())

	c.Connect("s1")
	w.clk.RunFor(time.Second)
	c.RequestDoc("lecture")
	w.clk.RunFor(2 * time.Second)
	if c.State("s1") != protocol.StViewing {
		t.Fatalf("state = %v, want viewing on s1", c.State("s1"))
	}

	// Episode 1: s1 and s2 die together. The failover tries s2 first (it is
	// first in the advertised peer set), times out, marks it failed, and
	// lands on s3.
	w.net.SetHostDown("s1", true)
	w.net.SetHostDown("s2", true)
	w.clk.RunFor(14 * time.Second)
	if got := sessionHost(c, names...); got != "s3" {
		t.Fatalf("episode 1 recovered onto %q, want s3 (err %q)", got, c.LastError())
	}
	if c.State("s3") != protocol.StViewing {
		t.Fatalf("state on s3 = %v, want viewing", c.State("s3"))
	}

	// Episode 2: s2 comes back, s3 dies. The client must retry s2 — sticky
	// failedPeers from episode 1 would leave it with no peer at all.
	w.net.SetHostDown("s2", false)
	w.net.SetHostDown("s3", true)
	w.clk.RunFor(16 * time.Second)
	if got := sessionHost(c, names...); got != "s2" {
		t.Fatalf("episode 2 recovered onto %q, want the revived s2 (err %q)",
			got, c.LastError())
	}
	if c.State("s2") != protocol.StViewing {
		t.Fatalf("state on s2 = %v, want viewing", c.State("s2"))
	}
}

// TestClusterFailoverLandsOnSharedFlow crashes the serving shard while a
// second viewer of the same lecture is already riding a shared flow at the
// replica. The failover re-request must land the recovered session on that
// SAME flow — one encode at the replica, two subscribers — not on a private
// sender.
func TestClusterFailoverLandsOnSharedFlow(t *testing.T) {
	w := newClusterWorld(t,
		server.Placement{"lecture": {"s1", "s2"}},
		map[string]string{"lecture": lesson90},
		server.Options{Grace: 5 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
			LivenessMisses: 3, SharedFlows: true},
		"s1", "s2")
	a := w.newClient(t, "laptop-a", fastClient())
	b := w.newClient(t, "laptop-b", fastClient())

	// B watches the lecture at the replica; its flow is the one A must join.
	b.Connect("s2")
	w.clk.RunFor(time.Second)
	b.RequestDoc("lecture")
	w.clk.RunFor(2 * time.Second)
	if b.State("s2") != protocol.StViewing {
		t.Fatalf("b state on s2 = %v, want viewing", b.State("s2"))
	}
	// The live shared flows on s2 and their subscriptions, from the flow
	// counters of s2's scope.
	sc := w.cl.Scopes["s2"]
	live := func() (flows, subs int64) {
		return sc.Counter("server_flows_created").Value() - sc.Counter("server_flows_torn_down").Value(),
			sc.Counter("server_flow_attaches").Value() - sc.Counter("server_flow_detaches").Value()
	}
	if flows, _ := live(); flows == 0 {
		t.Fatal("no shared flows on s2 for the first viewer")
	}

	a.Connect("s1")
	w.clk.RunFor(time.Second)
	a.RequestDoc("lecture")
	w.clk.RunFor(2 * time.Second)
	if a.State("s1") != protocol.StViewing {
		t.Fatalf("a state on s1 = %v, want viewing", a.State("s1"))
	}

	w.net.SetHostDown("s1", true)
	w.clk.RunFor(12 * time.Second)
	if got := sessionHost(a, "s1", "s2"); got != "s2" {
		t.Fatalf("a recovered onto %q, want the replica s2 (err %q)", got, a.LastError())
	}
	if a.State("s2") != protocol.StViewing {
		t.Fatalf("a state on s2 = %v, want viewing", a.State("s2"))
	}

	// The recovered session shares B's flows: every time-sensitive stream of
	// the lecture fans out from one encode to both subscribers. Each viewer
	// subscribes to a flow at most once, so twice as many subscriptions as
	// flows means every flow has both.
	flows, subs := live()
	if subs != 2*flows {
		t.Fatalf("%d subscriptions to %d flows after failover, want 2 to each", subs, flows)
	}
	if flows == 0 {
		t.Fatal("flows torn down after failover")
	}
	// And both players keep playing.
	w.clk.RunFor(5 * time.Second)
	if rep := b.Player().Report(); rep.Streams["n"].Plays == 0 {
		t.Fatalf("b playout starved after a's failover: %+v", rep.Streams["n"])
	}
}
