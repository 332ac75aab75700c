package experiments

import (
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/stats"
)

// This file is the whole of experiment E13: the cluster load + chaos
// harness, its result type with the gates, and the table. The harness boots
// a federation through cluster.New and drives it through exported API only,
// which is why it lives here and not in internal/cluster. The run is
// deterministic, so its counters are pinned exactly in
// TestRunClusterLoadInvariants rather than committed as a file.
//
// The scenario: a flash crowd of clients aims at one server of a
// three-server federation, the admission watermark spreads them by
// in-protocol redirects, a subset navigates to a document homed on another
// server (exercising the signed handoff path), and the crowded server is
// killed mid-lesson so every one of its sessions must fail over onto a
// replica actually holding the lesson.

// hotLesson is the flash-crowd target: long enough that the kill lands in
// the middle of every playout.
const hotLesson = `<TITLE>hot lecture</TITLE>
<TEXT>the lesson everyone wants</TEXT>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=120> </AU_VI>`

// satelliteLesson is homed on a single server, so reaching it from anywhere
// else requires a cross-server handoff.
const satelliteLesson = `<TITLE>satellite seminar</TITLE>
<TEXT>the lesson homed elsewhere</TEXT>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=cv STARTIME=0 DURATION=120> </AU_VI>`

// The federation the scenario runs on; only the crowd size varies. Capacity
// and watermark shape the admission pressure: at 1 Mb/s peak per client the
// first server sheds fresh connects once ~9 sessions are resident. The seed
// is pinned because the cluster invariants are an exact replay, not a
// stochastic sweep.
const (
	clusterServers           = 3
	clusterSeed              = 0xC1A57E8
	clusterCapacity          = 16_000_000
	clusterRedirectWatermark = 0.55
)

// ClusterLoadResult is one harness run.
type ClusterLoadResult struct {
	Servers int
	Clients int

	// Redirect spread: redirects issued by servers, followed by clients,
	// and the fraction of fresh connect attempts answered with a redirect.
	Redirects         int64
	RedirectsFollowed int64
	RedirectRate      float64

	// Handoff path: issued at sources, accepted at targets, completed
	// end-to-end at clients, plus the client-observed suspend→first-doc-OK
	// latency quantiles.
	Handoffs          int64
	HandoffAccepts    int64
	HandoffsCompleted int64
	HandoffP50Millis  float64
	HandoffP95Millis  float64

	// Failover outcome after the mid-lesson kill.
	SessionsOnKilled  int
	SessionsRecovered int
	SessionsLost      int

	// MaxUtilization is the peak admission utilization seen at any server
	// at the scenario checkpoints.
	MaxUtilization float64
}

// check holds the cluster invariants on one run: the flash crowd is actually
// spread by in-protocol redirects, cross-server handoffs complete with a
// measured latency, and killing the serving shard loses not a single session
// — every one recovers onto a replica holding its lesson.
func (r ClusterLoadResult) check() error {
	if r.Redirects <= 0 || r.RedirectsFollowed <= 0 || r.RedirectRate <= 0 {
		return fmt.Errorf("clients=%d shows no admission redirects; the flash crowd was not spread", r.Clients)
	}
	if r.Handoffs <= 0 || r.HandoffsCompleted <= 0 || r.HandoffP95Millis <= 0 {
		return fmt.Errorf("clients=%d missing completed handoffs or latency quantiles", r.Clients)
	}
	if r.SessionsOnKilled <= 0 {
		return fmt.Errorf("clients=%d kill scenario vacuous (no sessions on killed server)", r.Clients)
	}
	// The headline invariant: a shard kill mid-lesson loses nothing.
	if r.SessionsLost != 0 || r.SessionsRecovered != r.SessionsOnKilled {
		return fmt.Errorf("clients=%d lost %d of %d sessions on the killed server",
			r.Clients, r.SessionsLost, r.SessionsOnKilled)
	}
	return nil
}

// viewingHost returns the server a client is currently viewing on, or "".
func viewingHost(c *client.Client, names []string) string {
	for _, n := range names {
		if c.State(n) == protocol.StViewing {
			return n
		}
	}
	return ""
}

// maxUtilization reports the highest admission utilization in the cluster
// right now.
func maxUtilization(cl *cluster.Cluster) float64 {
	var max float64
	for _, srv := range cl.Servers {
		if u := srv.Admission().Utilization(); u > max {
			max = u
		}
	}
	return max
}

// runClusterLoad builds the federation and runs the flash-crowd → handoff →
// kill scenario on the virtual clock with the given crowd size. The returned
// error flags harness-level failures (a client that never got admitted
// anywhere); the invariant fields are left to ClusterLoadResult.check.
func runClusterLoad(crowd int) (ClusterLoadResult, error) {
	res := ClusterLoadResult{Servers: clusterServers, Clients: crowd}

	clk := clock.NewSim()
	net := netsim.New(clk, clusterSeed)
	net.SetDefaultLink(netsim.DefaultLAN())
	users := auth.NewDB()
	names := make([]string, clusterServers)
	for i := range names {
		names[i] = fmt.Sprintf("srv%d", i+1)
	}
	satelliteHome := names[len(names)-1]
	cl, err := cluster.New(clk, net, users, cluster.Config{
		Servers: names,
		Placement: server.Placement{
			"hot-lecture": names,
			"satellite":   {satelliteHome},
		},
		Docs: map[string]string{
			"hot-lecture": hotLesson,
			"satellite":   satelliteLesson,
		},
		ServerOptions: server.Options{
			Capacity:          clusterCapacity,
			Grace:             6 * time.Second,
			HeartbeatEvery:    500 * time.Millisecond,
			LivenessMisses:    3,
			RedirectWatermark: clusterRedirectWatermark,
		},
	})
	if err != nil {
		return res, err
	}

	cscope := obs.NewScope(clk)
	clients := make([]*client.Client, crowd)
	for i := range clients {
		user := fmt.Sprintf("user%02d", i)
		if err := users.Subscribe(auth.User{
			Name: user, Password: "pw", RealName: "Load User",
			Email: user + "@example.gr", Class: qos.Standard,
		}, clk.Now()); err != nil {
			return res, err
		}
		c, err := client.New(fmt.Sprintf("c%02d", i), clk, net, client.Options{
			User: user, Password: "pw",
			PeakRate: 1_000_000, MinRate: 250_000,
			HeartbeatInterval: 500 * time.Millisecond,
			LivenessMisses:    3,
			RetryTimeout:      250 * time.Millisecond,
			RetryAttempts:     4,
			Obs:               cscope,
			Peers:             names,
		})
		if err != nil {
			return res, err
		}
		clients[i] = c
	}

	// Phase 1 — flash crowd: everyone aims at srv1, staggered 50 ms apart.
	// The watermark turns the pile-up into in-protocol redirects.
	for _, c := range clients {
		c.Connect(names[0])
		clk.RunFor(50 * time.Millisecond)
	}
	clk.RunFor(3 * time.Second)
	res.MaxUtilization = maxUtilization(cl)

	// Phase 2 — requests: most clients play the replicated hot lecture;
	// every fourth navigates to the satellite doc homed on the last server,
	// which from anywhere else is a cross-server handoff.
	for i, c := range clients {
		if i%4 == 1 {
			c.RequestDoc("satellite")
		} else {
			c.RequestDoc("hot-lecture")
		}
		clk.RunFor(25 * time.Millisecond)
	}
	clk.RunFor(4 * time.Second)
	if u := maxUtilization(cl); u > res.MaxUtilization {
		res.MaxUtilization = u
	}
	for i, c := range clients {
		if viewingHost(c, names) == "" {
			return res, fmt.Errorf("client %d not viewing before kill (err %q)", i, c.LastError())
		}
	}

	// Phase 3 — kill the crowded server mid-lesson. Its clients must ride
	// suspend → grace expiry → failover onto a replica holding their doc.
	before := make([]string, len(clients))
	for i, c := range clients {
		before[i] = viewingHost(c, names)
		if before[i] == names[0] {
			res.SessionsOnKilled++
		}
	}
	net.SetHostDown(names[0], true)
	// Liveness detection (3 × 500 ms) + grace probing (6 s) + failover
	// reconnect and doc restart, with margin for retransmission backoff.
	clk.RunFor(16 * time.Second)

	for i, c := range clients {
		now := viewingHost(c, names)
		if before[i] != names[0] {
			if now == "" {
				res.SessionsLost++
			}
			continue
		}
		if now != "" && now != names[0] {
			res.SessionsRecovered++
		} else {
			res.SessionsLost++
		}
	}

	res.Redirects = cl.CounterTotal("cluster_redirects")
	res.RedirectsFollowed = cscope.Counter("client_redirects_followed").Value()
	res.RedirectRate = float64(res.Redirects) / float64(int64(crowd)+res.RedirectsFollowed)
	res.Handoffs = cl.CounterTotal("cluster_handoffs")
	res.HandoffAccepts = cl.CounterTotal("cluster_handoff_accepts")
	res.HandoffsCompleted = cscope.Counter("client_handoffs_completed").Value()
	h := cscope.Histogram("handoff_latency")
	res.HandoffP50Millis = float64(h.P50()) / float64(time.Millisecond)
	res.HandoffP95Millis = float64(h.P95()) / float64(time.Millisecond)
	return res, nil
}

// E13Cluster is the headline federation experiment: the harness at three
// crowd sizes, tabulating the redirect spread, handoff latency quantiles and
// the failover outcome of killing the crowded server mid-lesson. Every row
// passed check. The harness runs on its pinned seed, not the CLI's, so the
// table replays exactly.
func E13Cluster() (*stats.Table, error) {
	tb := stats.NewTable("BENCH — federated cluster: load-aware redirects, signed handoffs, shard-kill failover",
		"clients", "servers", "redirects", "redirect rate", "handoffs",
		"handoff p50 ms", "handoff p95 ms", "on killed", "recovered", "lost")
	for _, n := range []int{12, 18, 24} {
		res, err := runClusterLoad(n)
		if err != nil {
			return nil, fmt.Errorf("cluster clients=%d: %w", n, err)
		}
		if err := res.check(); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		tb.AddRow(res.Clients, res.Servers, res.Redirects,
			fmt.Sprintf("%.2f", res.RedirectRate),
			res.Handoffs,
			fmt.Sprintf("%.1f", res.HandoffP50Millis),
			fmt.Sprintf("%.1f", res.HandoffP95Millis),
			res.SessionsOnKilled, res.SessionsRecovered, res.SessionsLost)
	}
	return tb, nil
}
