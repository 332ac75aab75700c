package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

const (
	clientCtrlPort  = 6000
	clientMediaBase = 7000

	peakRate = 1_000_000 // bits/s a viewer declares at admission
	minRate  = 250_000

	// clickRetry is how often a viewer whose page is not up yet looks
	// again; clickPatience is when they give up.
	clickRetry    = 250 * time.Millisecond
	clickPatience = 10 * time.Second
	// lingerAfter is how long a viewer stays after the lesson's last frame
	// is due before leaving.
	lingerAfter = 3 * time.Second
	// checkEvery selects the viewers whose frame payloads the check
	// repetition verifies byte for byte.
	checkEvery = 16
)

// viewer is one scripted session: the plan, the real client, and the
// instants of the harness's own calls (simulated time since the epoch).
type viewer struct {
	w    *world
	plan viewerPlan
	c    *client.Client

	lessonLen    time.Duration
	lessonFrames int64         // frames due over the whole lesson
	requestAt    time.Duration // RequestDoc / RequestTopics call (-1 = never)
}

// world is one freshly built simulation of a workload.
type world struct {
	wl      workload
	plan    plan
	clk     *clock.Virtual
	net     *netsim.Network
	servers []*server.Server
	viewers []*viewer
	hclk    clock.Clock // the harness schedules viewer actions on it
	epoch   time.Time
	end     time.Duration

	// corrupt records the first payload mismatch the check hook saw.
	corrupt string
}

const serverPrefix = "srv"

func serverName(i int) string { return fmt.Sprintf("%s%d", serverPrefix, i+1) }

// buildWorld constructs servers, clients and links for one repetition and
// schedules every viewer's arrival. With a tracer, every component gets
// interposed clocks and nets; check installs the payload-verifying hook.
func buildWorld(wl workload, p plan, tr *tracer, check bool) (*world, error) {
	clk := clock.NewSim()
	w := &world{wl: wl, plan: p, clk: clk, epoch: clk.Now()}
	clockFor := func(o owner) clock.Clock {
		if tr == nil {
			return clk
		}
		return tr.clock(clk, o)
	}
	w.hclk = clockFor(ownHarness)
	w.net = netsim.New(clockFor(ownNetsim), p.netSeed)
	w.net.SetDefaultLink(netsim.DefaultLAN())
	var serverNet, clientNet netsim.Net = w.net, w.net
	if tr != nil {
		serverNet, clientNet = tr.net(w.net, ownServer), tr.net(w.net, ownClient)
	}

	users := auth.NewDB()
	names := make([]string, wl.servers)
	for i := range names {
		names[i] = serverName(i)
	}
	if wl.servers == 1 {
		db := server.NewDatabase()
		for _, l := range p.catalogue {
			if err := db.Put(l.name, l.src, "benchmark catalogue"); err != nil {
				return nil, err
			}
		}
		srv, err := server.New(names[0], clockFor(ownServer), serverNet, users, db, server.Options{
			Capacity:    2 * peakRate * float64(wl.viewers),
			SharedFlows: wl.shared,
		})
		if err != nil {
			return nil, err
		}
		w.servers = []*server.Server{srv}
	} else {
		var err error
		w.servers, err = federate(w, names, users, clockFor(ownServer), serverNet, tr != nil)
		if err != nil {
			return nil, err
		}
		w.net.AddOutage(names[0], wl.killAt, time.Hour)
	}

	copts := client.Options{
		CtrlPort: clientCtrlPort, MediaPortBase: clientMediaBase,
		Password: "pw", Class: qos.Standard,
		PeakRate: peakRate, MinRate: minRate,
	}
	if wl.servers > 1 {
		// The federation runs a tight liveness loop so that a kill is
		// detected, probed through the grace window and failed over well
		// inside the run.
		copts.HeartbeatInterval = 500 * time.Millisecond
		copts.RetryTimeout = 250 * time.Millisecond
		copts.RetryAttempts = 4
		copts.Peers = names
	}
	cclk := clockFor(ownClient)
	for i, vp := range p.viewers {
		v := &viewer{w: w, plan: vp, requestAt: -1}
		if vp.doc >= 0 {
			v.lessonLen, v.lessonFrames = p.catalogue[vp.doc].length, p.catalogue[vp.doc].frames
		}
		host := fmt.Sprintf("v%04d", i)
		o := copts
		o.User = "user-" + host
		if err := users.Subscribe(auth.User{
			Name: o.User, Password: o.Password, RealName: "Bench Viewer",
			Email: o.User + "@example.gr", Class: qos.Standard,
		}, w.epoch); err != nil {
			return nil, err
		}
		if check && i%checkEvery == 0 {
			o.OnFrame = w.verifyFrame
		}
		var err error
		if v.c, err = client.New(host, cclk, clientNet, o); err != nil {
			return nil, err
		}
		if vp.wan {
			for _, s := range names {
				w.net.SetDuplexLink(s, host, netsim.DefaultWAN())
				// Mid-lesson congestion: less bandwidth, more loss and
				// delay. The grader must shed video before audio, then
				// recover.
				w.net.AddPhase(s, host, netsim.Phase{
					Start: wl.killAt / 2, Duration: 4 * time.Second,
					LossFactor: 4, ExtraDelay: 30 * time.Millisecond,
					ExtraJitter: 20 * time.Millisecond, BandwidthFactor: 0.4,
				})
			}
		}
		w.viewers = append(w.viewers, v)
		w.hclk.AfterFunc(vp.arrive, v.arrive)
	}

	w.end = wl.horizon
	if w.end == 0 {
		for _, v := range w.viewers {
			if t := v.plan.arrive + wl.think + v.stay(); t > w.end {
				w.end = t
			}
		}
		w.end += time.Second
	}
	return w, nil
}

// federate boots the three-server cluster: the two long lessons replicated
// everywhere, the satellite homed on the last server only. Untraced it is
// cluster.New, the product's constructor. cluster.New takes the concrete
// clock and network, so the traced run wires the same federation by hand
// through the interposers; the sim_digest check proves the two equivalent.
func federate(w *world, names []string, users *auth.DB, sclk clock.Clock, snet netsim.Net, traced bool) ([]*server.Server, error) {
	placement := server.Placement{}
	docs := map[string]string{}
	for i, l := range w.plan.catalogue {
		docs[l.name] = l.src
		if i == w.plan.satellite {
			placement[l.name] = names[len(names)-1:]
		} else {
			placement[l.name] = names
		}
	}
	opts := server.Options{
		Capacity:          float64(w.wl.viewers) * peakRate,
		RedirectWatermark: 0.45,
		Grace:             6 * time.Second,
		HeartbeatEvery:    500 * time.Millisecond,
		LivenessMisses:    3,
	}
	out := make([]*server.Server, len(names))
	if !traced {
		cl, err := cluster.New(w.clk, w.net, users, cluster.Config{
			Servers: names, Placement: placement, Docs: docs, ServerOptions: opts,
		})
		if err != nil {
			return nil, err
		}
		for i, n := range names {
			out[i] = cl.Servers[n]
		}
		return out, nil
	}
	peers := map[string]*server.Server{}
	sorted := make([]string, 0, len(docs))
	for d := range docs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	for i, n := range names {
		db := server.NewDatabase()
		for _, d := range sorted {
			for _, h := range placement[d] {
				if h == n {
					if err := db.Put(d, docs[d], ""); err != nil {
						return nil, err
					}
				}
			}
		}
		o := opts
		o.Obs = obs.NewScope(sclk)
		o.Directory = directory{placement: placement, servers: peers, self: n}
		o.ClusterKey = cluster.DefaultClusterKey
		srv, err := server.New(n, sclk, snet, users, db, o)
		if err != nil {
			return nil, err
		}
		peers[n] = srv
		out[i] = srv
	}
	for i := range names {
		out[i].SetPeers(append(append([]string(nil), names[:i]...), names[i+1:]...))
	}
	return out, nil
}

// directory mirrors cluster.New's live placement/load view, as one server
// of the traced federation sees it.
type directory struct {
	placement server.Placement
	servers   map[string]*server.Server
	self      string
}

func (d directory) Replicas(doc string) []string { return d.placement[doc] }

func (d directory) PeerLoad(host string) (float64, bool) {
	s, ok := d.servers[host]
	if host == d.self || !ok {
		return 0, false
	}
	return s.Admission().Utilization(), true
}

// stay is how long the viewer remains after the click.
func (v *viewer) stay() time.Duration {
	if v.plan.doc < 0 {
		return v.w.wl.hold
	}
	return v.lessonLen + lingerAfter
}

func (v *viewer) since() time.Duration { return v.w.clk.Now().Sub(v.w.epoch) }

// arrive is the viewer's first action. Everyone aims at srv1; in the
// federation the watermark spreads the crowd by redirects.
func (v *viewer) arrive() {
	v.c.Connect(serverName(0))
	v.w.hclk.AfterFunc(v.w.wl.think, v.click)
}

// click is the viewer's second action, taken once the page is up: request
// the lesson (or, with no media, the topic list).
func (v *viewer) click() {
	host := v.c.CurrentServer()
	if host == "" || v.c.State(host) != protocol.StBrowsing {
		if v.since() < v.plan.arrive+v.w.wl.think+clickPatience {
			v.w.hclk.AfterFunc(clickRetry, v.click)
		}
		return
	}
	v.requestAt = v.since()
	if v.plan.doc >= 0 {
		v.c.RequestDoc(v.w.plan.catalogue[v.plan.doc].name)
	} else {
		v.c.RequestTopics()
	}
	if v.w.wl.horizon == 0 {
		v.w.hclk.AfterFunc(v.stay(), v.c.Disconnect)
	}
}

// verifyFrame is the check repetition's client.Options.OnFrame hook.
func (w *world) verifyFrame(id string, hdr media.FrameHeader, payload []byte) {
	if w.corrupt != "" {
		return
	}
	if want := media.Payload(id, int(hdr.Index), int(hdr.FrameSize)); !bytes.Equal(payload, want) {
		w.corrupt = fmt.Sprintf("stream %s frame %d: reassembled payload differs from media.Payload", id, hdr.Index)
	}
}

// run drives the world from the first client action to the last simulated
// event and returns the host time it took.
func (w *world) run(tr *tracer) time.Duration {
	start := time.Now()
	if tr != nil {
		tr.start()
	}
	w.clk.Run(w.epoch.Add(w.end))
	if tr != nil {
		tr.stop()
	}
	return time.Since(start)
}
