package chaos

// Failover as a move whose source is dead: past the grace window the client
// makes the same move between servers a handoff makes, with the failover
// cause. These scenarios pin what that move must carry over from the
// handoff (a refused target falls through to the next replica), what it
// must keep of its own (the Connect.Failover bit that exempts it from the
// target's redirect watermark), and where a move ends with no document or
// no replica left.

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

// threeServers are the federations below: srv-a serves the viewer and dies.
var threeServers = []string{"srv-a", "srv-b", "srv-c"}

// failoverOptions detect the crash quickly and close the grace window 3 s
// after it. Capacity, when set, admits one 1 Mb/s viewer per server.
func failoverOptions(capacity float64, watermark int) server.Options {
	return server.Options{Grace: 3 * time.Second, HeartbeatEvery: 500 * time.Millisecond,
		LivenessMisses: 3, Capacity: capacity, SessionWatermark: watermark}
}

// hold connects a second viewer, with its own telemetry scope, to host and
// keeps it there, taking that server's one admission slot.
func (w *clusterWorld) hold(t *testing.T, host string) {
	t.Helper()
	copts := fastClient()
	copts.Obs = obs.NewScope(w.clk)
	other := w.newClient(t, "laptop-2", copts)
	other.Connect(host)
	w.clk.RunFor(time.Second)
	if lc := other.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("holder connect to %s = %+v (err %q)", host, lc, other.LastError())
	}
}

// connectViewer connects the viewer to srv-a and, when doc is set, starts
// playing it.
func (w *clusterWorld) connectViewer(t *testing.T, doc string) *client.Client {
	t.Helper()
	c := w.newClient(t, "laptop", fastClient())
	c.Connect("srv-a")
	w.clk.RunFor(time.Second)
	if lc := c.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect to srv-a = %+v (err %q)", lc, c.LastError())
	}
	if doc != "" {
		c.RequestDoc(doc)
		w.clk.RunFor(2 * time.Second)
		if st := c.State("srv-a"); st != protocol.StViewing {
			t.Fatalf("state on srv-a = %v, want viewing", st)
		}
	}
	return c
}

func hasEvent(c *client.Client, what string) bool {
	for _, e := range c.Events() {
		if e.What == what {
			return true
		}
	}
	return false
}

// TestRefusedFailoverFallsThrough kills srv-a while srv-b, the first replica,
// has no capacity left for the viewer. The refusal must send the failover on
// to srv-c, like a refused handoff target, instead of stranding the viewer.
func TestRefusedFailoverFallsThrough(t *testing.T) {
	w := newClusterWorld(t, server.Placement{"lecture": threeServers},
		map[string]string{"lecture": lesson90}, failoverOptions(1_500_000, 0), threeServers...)
	w.hold(t, "srv-b")
	c := w.connectViewer(t, "lecture")

	w.net.SetHostDown("srv-a", true)
	w.clk.RunFor(12 * time.Second)

	if _, _, rej := w.cl.Servers["srv-b"].Admission().Counts(qos.Standard); rej != 1 {
		t.Fatalf("srv-b rejected %d admissions, want the failover's 1", rej)
	}
	if got := sessionHost(c, threeServers...); got != "srv-c" {
		t.Fatalf("failed over onto %q, want srv-c (err %q, events %+v)", got, c.LastError(), c.Events())
	}
	if st := c.State("srv-c"); st != protocol.StViewing {
		t.Fatalf("state on srv-c = %v, want viewing", st)
	}
	if got := w.cscope.Counter("client_failovers").Value(); got != 1 {
		t.Fatalf("client_failovers = %d, want 1 (one episode)", got)
	}
}

// TestStrandedFailoverIsTraced runs the failover out of replicas: srv-b
// refuses the viewer and srv-c is down too. With no source to return to the
// move ends stranded, and the failure is traced for the flight recorder.
func TestStrandedFailoverIsTraced(t *testing.T) {
	w := newClusterWorld(t, server.Placement{"lecture": threeServers},
		map[string]string{"lecture": lesson90}, failoverOptions(1_500_000, 0), threeServers...)
	w.hold(t, "srv-b")
	c := w.connectViewer(t, "lecture")

	w.net.SetHostDown("srv-a", true)
	w.net.SetHostDown("srv-c", true)
	w.clk.RunFor(30 * time.Second)

	if got, want := c.LastError(), "failover failed: no reachable replica"; got != want {
		t.Fatalf("last error %q, want %q (events %+v)", got, want, c.Events())
	}
	if got := sessionHost(c, threeServers...); got != "" {
		t.Fatalf("stranded viewer holds a session on %q", got)
	}
	var stranded bool
	for _, e := range w.cscope.Trace().Events() {
		stranded = stranded || e.Kind == obs.EvFailover && e.Note == "no replica available"
	}
	if !stranded {
		t.Fatal("the stranded failover left no failover trace event")
	}
}

// TestFailoverConnectSkipsWatermark pins the Connect.Failover bit. srv-b is
// at its session watermark when srv-a dies, and a fresh connect there would
// be redirected to srv-c, which does not hold the lecture. The failover
// connect must be admitted at srv-b instead.
func TestFailoverConnectSkipsWatermark(t *testing.T) {
	w := newClusterWorld(t, server.Placement{"lecture": {"srv-a", "srv-b"}},
		map[string]string{"lecture": lesson90}, failoverOptions(0, 1), threeServers...)
	w.hold(t, "srv-b")
	c := w.connectViewer(t, "lecture")

	w.net.SetHostDown("srv-a", true)
	w.clk.RunFor(12 * time.Second)

	if got := sessionHost(c, threeServers...); got != "srv-b" {
		t.Fatalf("failed over onto %q, want srv-b (err %q)", got, c.LastError())
	}
	if st := c.State("srv-b"); st != protocol.StViewing {
		t.Fatalf("state on srv-b = %v, want viewing", st)
	}
	b := w.cl.Scopes["srv-b"]
	if got := b.Counter("admission_failover_readmits").Value(); got != 1 {
		t.Fatalf("srv-b failover re-admissions = %d, want 1", got)
	}
	if got := b.Counter("cluster_redirects").Value(); got != 0 {
		t.Fatalf("srv-b redirects = %d, want 0: a failover connect is watermark-exempt", got)
	}
}

// TestBrowsingFailoverEndsAtConnect fails over a viewer that was browsing,
// so there is no document to re-request: the episode ends when srv-b admits
// it. A later connect that srv-c refuses is then an ordinary rejection, not
// a failover target refusing.
func TestBrowsingFailoverEndsAtConnect(t *testing.T) {
	w := newClusterWorld(t, server.Placement{"lecture": threeServers},
		map[string]string{"lecture": lesson90}, failoverOptions(1_500_000, 0), threeServers...)
	w.hold(t, "srv-c")
	c := w.connectViewer(t, "")

	w.net.SetHostDown("srv-a", true)
	w.clk.RunFor(12 * time.Second)
	if got := sessionHost(c, threeServers...); got != "srv-b" {
		t.Fatalf("failed over onto %q, want srv-b (err %q)", got, c.LastError())
	}
	if st := c.State("srv-b"); st != protocol.StBrowsing {
		t.Fatalf("state on srv-b = %v, want browsing", st)
	}

	c.Connect("srv-c")
	w.clk.RunFor(2 * time.Second)
	if !hasEvent(c, "connection rejected: "+c.LastError()) {
		t.Fatalf("srv-c's refusal was not an ordinary rejection (err %q, events %+v)", c.LastError(), c.Events())
	}
	if got := w.cscope.Counter("client_handoff_fallbacks").Value(); got != 0 {
		t.Fatalf("client_handoff_fallbacks = %d, want 0: the failover had ended", got)
	}
	if st := c.State("srv-c"); st != protocol.StIdle {
		t.Fatalf("state on srv-c = %v, want idle after the rejection", st)
	}
}
