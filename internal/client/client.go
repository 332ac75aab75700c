// Package client implements the Hermes browser core: connection management
// with the application state machine, scenario preprocessing into the E_i
// playout structures, one buffer handler per parallel media connection,
// media stream handlers that reassemble RTP fragments, the presentation
// handlers (a playout.Player rendering to a Display trace), the Client QoS
// Manager with its periodic feedback reports, navigation history, and the
// interactive operations (pause, resume, reload, disable media, annotate).
package client

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Options tunes the browser.
type Options struct {
	// CtrlPort is the client's control port.
	CtrlPort int
	// MediaPortBase is the first port used for parallel media
	// connections.
	MediaPortBase int
	// Window is the media time window per buffer; zero computes it from
	// the announced frame interval and JitterBudget.
	Window time.Duration
	// JitterBudget is the delay-variation allowance used when computing
	// windows (the "tolerance to network delays" of the statistical
	// window calculation).
	JitterBudget time.Duration
	// WindowSafety is the safety multiplier of the window calculation.
	WindowSafety float64
	// MaxInitialDelay caps the deliberate presentation start delay.
	MaxInitialDelay time.Duration
	// FeedbackInterval spaces the QoS feedback reports.
	FeedbackInterval time.Duration
	// Playout tunes the presentation scheduler.
	Playout playout.Options
	// AutoFollowLinks makes the browser follow timed links automatically.
	AutoFollowLinks bool
	// User credentials and contract.
	User     string
	Password string
	Class    qos.PricingClass
	// PeakRate/MinRate describe the connection load for admission.
	PeakRate float64
	MinRate  float64
	// FloorLevel is the worst quality level the user accepts.
	FloorLevel int
	// HeartbeatInterval spaces the session heartbeats probing server
	// liveness.
	HeartbeatInterval time.Duration
	// LivenessMisses is how many consecutive unanswered heartbeats declare
	// the server dead.
	LivenessMisses int
	// RetryTimeout is the initial reply timeout of tracked control
	// requests; it doubles on each retransmission up to retryBackoffCap.
	RetryTimeout time.Duration
	// RetryAttempts bounds retransmissions of requests without an explicit
	// deadline.
	RetryAttempts int
	// Peers seeds the known replicas before the first successful connect
	// advertises them (the hermes -peers flag): a failover's targets, and
	// a redirect's after the peers the redirecting server names.
	Peers []string
	// Obs, when set, threads telemetry through the browser's buffers and
	// playout scheduler and records session lifecycle events.
	Obs *obs.Scope
	// OnFrame, when set, observes every reassembled media frame with its
	// payload bytes, gathered for it alone into one frame-sized pooled
	// scratch buffer per frame in progress (integrity tests hook it). The
	// payload is borrowed: valid only during the call, which runs under the
	// client's lock, so it must copy what it keeps and not call back in.
	OnFrame func(streamID string, hdr media.FrameHeader, payload []byte)
}

func (o *Options) fill() {
	if o.CtrlPort <= 0 {
		o.CtrlPort = 6000
	}
	if o.MediaPortBase <= 0 {
		o.MediaPortBase = 7000
	}
	if o.JitterBudget <= 0 {
		o.JitterBudget = 100 * time.Millisecond
	}
	if o.WindowSafety <= 0 {
		o.WindowSafety = 2
	}
	if o.MaxInitialDelay <= 0 {
		o.MaxInitialDelay = 5 * time.Second
	}
	if o.FeedbackInterval <= 0 {
		o.FeedbackInterval = time.Second
	}
	if o.PeakRate <= 0 {
		o.PeakRate = 2_000_000
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.LivenessMisses <= 0 {
		o.LivenessMisses = 3
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = 750 * time.Millisecond
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 5
	}
}

// Event is a coarse browser lifecycle notification for tests and examples.
type Event struct {
	At   time.Time
	What string
}

// Client is one Hermes browser instance on the simulated network.
type Client struct {
	mu sync.Mutex

	// Host is the client's host name.
	Host string
	// addr is the client's control address, built once (CtrlAddr).
	addr netsim.Addr

	clk  clock.Clock
	net  netsim.Net
	opts Options

	// spans and hCtrlRTT are resolved once at New, like counters: spans
	// samples the wire→reassembled hop of 1-in-N media frames, hCtrlRTT
	// observes the first-send→reply round trip of tracked control requests.
	spans    *obs.FrameSpans
	hCtrlRTT *stats.DurationHistogram

	// servers lists one record per server talked to, linked through
	// record.next: a browser talks to a handful, so a search beats a map's
	// buckets. current names the connected one ("" when none).
	servers *record
	current string

	pres *presentation // the document on screen or last shown; nil before the first

	// results of the last control exchanges
	lastConnect   *protocol.ConnectResult
	lastSubscribe *protocol.SubscribeResult
	topics        []protocol.TopicInfo
	searchHits    []protocol.TopicInfo
	searchDone    bool
	annotations   *protocol.Annotations
	lastStats     *protocol.StatsResult
	lastError     string

	history []string
	events  []Event

	// Browser navigation stacks ("moving backward and forward in the list
	// of already viewed lessons", §6.2.3). Each entry records the document
	// and the server it lived on.
	backStack []navEntry
	fwdStack  []navEntry
	// navDirection classifies the in-flight request's effect on the
	// stacks: 0 new navigation, -1 back, +1 forward, 2 reload.
	navDirection int

	// reliable control plane (reliable.go)
	nextReq uint32
	hbAwait bool
	pending *pendingReq // the tracked requests in flight, linked through next
	// peers/graceSecs are the replica set and suspend grace window the
	// server advertised on connect; they bound recovery and failover.
	peers     []string
	graceSecs int
	hbTimer   *clock.Timer
	hbMisses  int
	// recovering names the server currently being probed for session
	// recovery ("" when healthy); failedPeers holds the dead sources and
	// failed targets of moves since the last successful connect.
	recovering      string
	recoverDeadline time.Time
	failedPeers     map[string]bool

	// move is the server change in flight (cluster.go): a handoff, link,
	// failover or redirect.
	move     moveEpisode
	hHandoff *stats.DurationHistogram // handoff_latency, resolved at New
}

// record is what the browser knows of one server: where its session there
// is in Figure 4, the session ID it granted, and the resume token of a
// suspended session.
type record struct {
	m       protocol.Machine
	session string
	token   string
	addr    netsim.Addr // the server's control address; addr.Host() names it
	next    *record
}

// navEntry is one visited document in the navigation stacks.
type navEntry struct {
	Host string
	Name string
}

// presentation is one document on screen with what the paper gives each
// presentation: its scenario and schedule, media buffers, presentation
// handler (player and display) and the timers of its initial delay, natural
// end and QoS feedback. Each DocResponse closes the previous one and builds
// the next, which inherits only the receive state.
type presentation struct {
	sc         *scenario.Scenario
	sch        *scenario.Schedule
	bufs       *buffer.Set
	display    *playout.Display
	player     *playout.Player
	doc        navEntry  // the document and the server it came from
	fillIDs    []string  // stream buffers gating the deliberate initial delay
	stillIDs   []string  // stills that must be present before the start
	docAt      time.Time // the DocResponse's arrival; the start waits MaxInitialDelay at most
	startDelay time.Duration
	started    bool
	// userPaused remembers a user-requested pause across a liveness
	// suspend: recovery restores the paused presentation instead of
	// restarting playout (the server keeps the sender paused too).
	userPaused bool
	// closed is set by close. A timer callback bound to a closed or replaced
	// presentation (on the wall clock it can run after its Stop) does nothing.
	closed    bool
	fillTimer *clock.Timer
	endTimer  *clock.Timer
	fbTimer   *clock.Timer
	streams   []protocol.StreamAnnounce // the media connection plan the server announced
	ports     []netsim.Addr             // the media ports listening for this document
	receive
}

// receive is the reception state that outlives a document: the monitor
// never forgets a stream, so neither do the records bound to its receivers.
type receive struct {
	monitor *qos.ClientMonitor
	rx      []*rxStream // one per SSRC ever announced
	asmFree []*assembly // recycled assembly shells (their bufs are pooled separately)
	rr      []byte      // sendFeedback's marshaled receiver report, reused
}

// close ends p: the player finishes, the timers stop, the media ports are
// released and the frames in reassembly are recycled. Its scenario,
// buffers, display and player stay readable until the next document
// replaces it. Closing nil or a closed presentation does nothing.
func (p *presentation) close(net netsim.Net) {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	p.player.Finish()
	p.fillTimer.Stop()
	p.endTimer.Stop()
	p.fbTimer.Stop()
	for _, addr := range p.ports {
		net.Listen(addr, nil)
	}
	for _, rec := range p.rx {
		for _, a := range rec.asm {
			p.freeAssembly(a)
		}
		clear(rec.asm)
		rec.asm = rec.asm[:0]
	}
}

// asmPool recycles the frame-sized scratch buffers in which clients with
// an Options.OnFrame observer gather frame bodies.
var asmPool buffer.Pool

// assembly counts one frame's fragments. The service acts on frame timing
// and sizes, never on content, so only an observer needs the body: then
// fragment fi is copied out of the (borrowed, transport-owned) packet
// payload into bytes [fi×MTU, fi×MTU+len) of pooled scratch, in any order.
type assembly struct {
	pb    *buffer.Buf // FrameSize bytes of pooled scratch; nil without an observer
	got   []bool      // fragments seen; duplicate deliveries must not double-count
	have  uint16
	total uint16
	hdr   media.FrameHeader
	ts    uint32
	// sentAt is the wire stamp of the earliest fragment seen (zero when the
	// transport does not stamp); it anchors the wire→reassembled span.
	sentAt time.Time
}

// rxStream is the record of one SSRC a document announced; its media port's
// listener is bound to it. The monitor never forgets a stream, so neither
// do these: an earlier document's SSRC still feeds its ID's receiver.
type rxStream struct {
	ssrc uint32
	id   string
	recv *rtp.Receiver  // the receiver the monitor tracks for id
	buf  *buffer.Buffer // the current document's buffer for id, or nil
	asm  []*assembly    // frames in reassembly
}

// stream returns the record of the stream ssrc names, trying the port's own
// record first, or nil when no announced stream carries ssrc.
func (r *receive) stream(bound *rxStream, ssrc uint32) *rxStream {
	if bound != nil && bound.ssrc == ssrc {
		return bound
	}
	for _, rec := range r.rx {
		if rec.ssrc == ssrc {
			return rec
		}
	}
	return nil
}

// newAssembly takes an assembly shell off the free list (or makes one) and,
// for an observer, gives the frame pooled scratch.
func (r *receive) newAssembly(hdr media.FrameHeader, ts uint32, observe bool) *assembly {
	var a *assembly
	if n := len(r.asmFree); n > 0 {
		a = r.asmFree[n-1]
		r.asmFree[n-1] = nil
		r.asmFree = r.asmFree[:n-1]
	} else {
		a = &assembly{}
	}
	if observe {
		a.pb = asmPool.Get(int(hdr.FrameSize))
	}
	if cap(a.got) < int(hdr.FragCount) {
		a.got = make([]bool, hdr.FragCount)
	} else {
		a.got = a.got[:hdr.FragCount]
		for i := range a.got {
			a.got[i] = false
		}
	}
	a.have = 0
	a.total = hdr.FragCount
	a.hdr = hdr
	a.ts = ts
	a.sentAt = time.Time{}
	return a
}

// freeAssembly returns any scratch to the pool and the shell to the free
// list. The caller must not touch a afterwards.
func (r *receive) freeAssembly(a *assembly) {
	asmPool.Put(a.pb)
	a.pb = nil
	if len(r.asmFree) < 64 {
		r.asmFree = append(r.asmFree, a)
	}
}

// New creates a browser and registers its control listener. It fails when
// the network cannot bind the browser's control address (only possible on
// the live transport).
func New(host string, clk clock.Clock, net netsim.Net, opts Options) (*Client, error) {
	opts.fill()
	c := &Client{
		Host:        host,
		addr:        netsim.MakeAddr(host, opts.CtrlPort),
		clk:         clk,
		net:         net,
		opts:        opts,
		failedPeers: map[string]bool{},
	}
	c.spans = opts.Obs.FrameSpans()
	c.hCtrlRTT = opts.Obs.Histogram("client_ctrl_rtt")
	c.hHandoff = opts.Obs.Histogram("handoff_latency")
	c.peers = append([]string(nil), opts.Peers...)
	if err := net.Listen(c.CtrlAddr(), c.handleCtrl); err != nil {
		return nil, fmt.Errorf("client %s: %w", host, err)
	}
	return c, nil
}

// CtrlAddr is the address the client's control channel listens on and
// sends from: the key a server files the client's session under.
func (c *Client) CtrlAddr() netsim.Addr { return c.addr }

func (c *Client) logEvent(what string) {
	c.events = append(c.events, Event{At: c.clk.Now(), What: what})
}

// Events returns the lifecycle log.
func (c *Client) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// lookup returns the record of a server, or nil if it has none.
func (c *Client) lookup(host string) *record {
	r := c.servers
	for r != nil && r.addr.Host() != host {
		r = r.next
	}
	return r
}

// server returns (creating if needed) the record of a server.
func (c *Client) server(host string) *record {
	r := c.lookup(host)
	if r == nil {
		r = &record{addr: netsim.MakeAddr(host, protocol.ControlPort), next: c.servers}
		c.servers = r
	}
	return r
}

// connectable returns the record of a server about to be connected: a
// session that reached disconnected is over, and a new one starts a fresh
// Figure 4 machine with no session.
func (c *Client) connectable(host string) *record {
	r := c.server(host)
	if r.m.State() == protocol.StDisconnected {
		r.m, r.session = protocol.Machine{}, ""
	}
	return r
}

// State returns the application state toward a server.
func (c *Client) State(host string) protocol.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server(host).m.State()
}

// CurrentServer returns the host currently connected ("" when none).
func (c *Client) CurrentServer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// Connect initiates a session with a server. A previous session's terminal
// state does not block a new one: the Figure 4 machine is per session, so a
// fresh machine is started when the old one reached disconnected. Toward a
// server whose session is suspended, Connect is the return within the grace
// period: it presents the resume token instead of credentials.
func (c *Client) Connect(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connectLocked(host)
}

// connectLocked builds and sends every Connect the browser sends. The
// server's record and the episode in flight decide the body and what a
// timeout does:
//   - the recovery probe resumes the session by ID until the grace window
//     closes, then fails over;
//   - toward a suspended session, a return presents the resume token;
//   - a record browsing with no session has just had its subscription
//     accepted, and the re-handshake presents the new credentials;
//   - a move's target gets the signed ticket (or the credentials) and the
//     failover bit, and a timeout falls back to the next target;
//   - anything else, a redirect's next hop included, is a fresh connect.
//
// Caller holds c.mu.
func (c *Client) connectLocked(host string) {
	rec := c.connectable(host)
	body := protocol.Connect{User: c.opts.User}
	var deadline time.Time
	onFail := func() { c.connectFailedLocked(host) }
	switch st := rec.m.State(); {
	case c.recovering == host:
		body.ResumeSession = rec.session
		deadline = c.recoverDeadline
		onFail = func() { c.failoverLocked(host) }
	case st == protocol.StSuspended:
		// The return fires InReturn on the server's answer.
		c.current, c.lastConnect = host, nil
		c.logEvent("return to " + host)
		body.ResumeToken = rec.token
	default:
		body.Class, body.PeakRate, body.MinRate = c.opts.Class, c.opts.PeakRate, c.opts.MinRate
		body.FloorLevel, body.Password = c.opts.FloorLevel, c.opts.Password
		if st == protocol.StBrowsing && rec.session == "" {
			break
		}
		if err := rec.m.Apply(protocol.InConnect); err != nil {
			c.lastError = err.Error()
			return
		}
		c.current, c.lastConnect = host, nil
		if host != c.move.to || c.move.fresh {
			body.ResumeToken = rec.token
			c.logEvent("connect → " + host)
			break
		}
		body.Handoff, body.Failover = c.move.ticket, c.move.failover
		if body.Handoff != nil {
			body.Password = ""
		}
		c.logEvent(c.move.verb + " connect → " + host)
		onFail = func() { c.handoffConnectFailedLocked(host) }
	}
	c.sendReqLocked(host, protocol.MsgConnect, &body, deadline, onFail)
}

// connectFailedLocked unsticks a connect whose reply never arrived: the
// machine leaves Connecting instead of hanging there forever.
func (c *Client) connectFailedLocked(host string) {
	c.server(host).m.Try(protocol.InAuthReject)
	c.lastError = "connect timed out: " + host
	c.logEvent("connect timed out: " + host)
}

// Subscribe submits the subscription form to the current server; the
// browser adopts the form's credentials as its identity.
func (c *Client) Subscribe(form protocol.SubscriptionForm) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSubscribe = nil
	c.opts.User = form.User
	c.opts.Password = form.Password
	host := c.current
	c.sendReqLocked(host, protocol.MsgSubscribe, &form, time.Time{}, func() {
		c.server(host).m.Try(protocol.InSubscribeFail)
		c.lastError = "subscription timed out: " + host
	})
}

// RequestTopics asks for the contents listing.
func (c *Client) RequestTopics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.topics = nil
	c.sendReqLocked(c.current, protocol.MsgTopicList, &protocol.TopicListRequest{}, time.Time{}, nil)
}

// Search launches a federated content search from the current server.
func (c *Client) Search(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.searchHits = nil
	c.searchDone = false
	c.sendReqLocked(c.current, protocol.MsgSearch, &protocol.Search{Token: token},
		time.Time{}, func() { c.searchDone = true })
}

// RequestDoc asks the current server for a document.
func (c *Client) RequestDoc(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requestDocLocked(name)
}

func (c *Client) requestDocLocked(name string) {
	m := &c.server(c.current).m
	presenting := m.State() == protocol.StViewing || m.State() == protocol.StPaused
	if err := m.Apply(protocol.InRequestDoc); err != nil {
		c.lastError = err.Error()
		return
	}
	if presenting {
		// Selecting a new document ends the current presentation.
		c.pres.close(c.net)
	}
	c.logEvent("request " + name)
	win := c.opts.Window
	if win <= 0 {
		// The statistical window calculation, using the worst (video)
		// frame interval before the announce arrives.
		win = buffer.ComputeWindow(40*time.Millisecond, c.opts.JitterBudget, c.opts.WindowSafety)
	}
	host := c.current
	c.sendReqLocked(host, protocol.MsgDocRequest, &protocol.DocRequest{
		Name:          name,
		MediaPortBase: c.opts.MediaPortBase,
		WindowMS:      int(win / time.Millisecond),
	}, time.Time{}, func() {
		c.server(host).m.Try(protocol.InDocFail)
		c.lastError = "document request timed out: " + name
	})
}

// Disconnect ends the session with the current server.
func (c *Client) Disconnect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == "" {
		return
	}
	c.pres.close(c.net)
	c.server(c.current).m.Try(protocol.InDisconnect)
	c.cancelPendingLocked(c.current)
	if c.hbTimer != nil {
		c.hbTimer.Stop()
		c.hbTimer = nil
	}
	c.send(c.server(c.current), protocol.MsgDisconnect, &protocol.Disconnect{})
	c.logEvent("disconnect " + c.current)
	c.opts.Obs.Emit(obs.EvSessionEnd, c.current, 0, "client disconnect")
	c.current = ""
}

// Pause pauses the presentation locally and at the media servers.
func (c *Client) Pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres == nil || !c.server(c.current).m.Try(protocol.InPause) {
		return
	}
	c.send(c.server(c.current), protocol.MsgPause, &protocol.MediaOp{})
	c.pres.player.Pause()
	c.pres.userPaused = true
	c.logEvent("pause")
}

// Resume continues a paused presentation.
func (c *Client) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres == nil || !c.server(c.current).m.Try(protocol.InResume) {
		return
	}
	c.send(c.server(c.current), protocol.MsgResume, &protocol.MediaOp{})
	c.pres.player.Resume()
	c.pres.userPaused = false
	c.logEvent("resume")
}

// DisableMedia stops one stream's presentation and transmission.
func (c *Client) DisableMedia(streamID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send(c.server(c.current), protocol.MsgDisableMedia, &protocol.MediaOp{StreamID: streamID})
	c.logEvent("disable " + streamID)
}

// Annotate attaches a remark to the current document.
func (c *Client) Annotate(text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send(c.server(c.current), protocol.MsgAnnotate, &protocol.Annotate{Text: text})
}

// RequestStats asks the current server for its telemetry registry
// snapshot; the reply lands in Stats.
func (c *Client) RequestStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastStats = nil
	c.sendReqLocked(c.current, protocol.MsgStatsRequest, &protocol.StatsRequest{}, time.Time{}, nil)
}

// Stats returns the last received server telemetry snapshot (nil = none
// yet).
func (c *Client) Stats() *protocol.StatsResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastStats
}

// RequestAnnotations asks for the remarks stored on a document ("" = the
// current one); the reply lands in Annotations.
func (c *Client) RequestAnnotations(doc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.annotations = nil
	c.sendReqLocked(c.current, protocol.MsgListAnnotations, &protocol.ListAnnotations{Doc: doc}, time.Time{}, nil)
}

// Annotations returns the last received annotation listing (nil = none yet).
func (c *Client) Annotations() *protocol.Annotations {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.annotations
}

// Reload re-requests the current document from the start (the navigation
// stacks are untouched).
func (c *Client) Reload() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pres; p != nil && p.doc.Name != "" {
		c.navDirection = 2
		c.requestDocLocked(p.doc.Name)
	}
}

// Back returns to the previously viewed document, reconnecting to its
// server when necessary. It reports whether there was anywhere to go.
func (c *Client) Back() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.backStack) == 0 {
		return false
	}
	target := c.backStack[len(c.backStack)-1]
	c.backStack = c.backStack[:len(c.backStack)-1]
	c.navDirection = -1
	c.logEvent("back → " + target.Name)
	c.followLinkLocked(scenario.Link{Target: target.Name, Host: target.Host})
	return true
}

// Forward re-advances after a Back. It reports whether there was anywhere
// to go.
func (c *Client) Forward() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fwdStack) == 0 {
		return false
	}
	target := c.fwdStack[len(c.fwdStack)-1]
	c.fwdStack = c.fwdStack[:len(c.fwdStack)-1]
	c.navDirection = 1
	c.logEvent("forward → " + target.Name)
	c.followLinkLocked(scenario.Link{Target: target.Name, Host: target.Host})
	return true
}

// FollowLink navigates to a linked document. A link to another server
// moves there: the connection here is suspended behind its grace period
// (return to it with Connect), and when the other server does not answer
// the browser falls back to the suspended one.
func (c *Client) FollowLink(link scenario.Link) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.followLinkLocked(link)
}

func (c *Client) followLinkLocked(link scenario.Link) {
	if link.Host == "" || link.Host == c.current {
		c.requestDocLocked(link.Target)
		return
	}
	// Figure 4 from wherever the user is: the remote document is requested
	// (from browsing), found to live elsewhere, and the connection suspends.
	from := c.current
	m := &c.server(from).m
	if m.State() == protocol.StBrowsing {
		m.Try(protocol.InRequestDoc)
	}
	m.Try(protocol.InRedirect)
	c.beginMoveLocked(from, link.Host, link.Target, nil, nil)
	// The connect waits for the suspend's ack (onSuspendResult), which
	// carries the resume token a fallback needs; a lost ack connects anyway.
	c.sendReqLocked(from, protocol.MsgSuspend, &protocol.Suspend{}, time.Time{},
		func() { c.connectLocked(link.Host) })
}

// --- accessors for tests and experiments ---

// LastConnect returns the most recent connect result.
func (c *Client) LastConnect() *protocol.ConnectResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastConnect
}

// LastSubscribe returns the most recent subscription result.
func (c *Client) LastSubscribe() *protocol.SubscribeResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSubscribe
}

// Topics returns the last received contents listing.
func (c *Client) Topics() []protocol.TopicInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topics
}

// SearchResults returns the last search hits and whether the reply arrived.
func (c *Client) SearchResults() ([]protocol.TopicInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.searchHits, c.searchDone
}

// LastError returns the most recent error string.
func (c *Client) LastError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastError
}

// shown reads a field of the presentation on screen or last shown, or
// returns the zero value before the first document.
func shown[T any](c *Client, field func(*presentation) T) (v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres != nil {
		v = field(c.pres)
	}
	return v
}

// Display returns the playout trace of the last document (nil before one).
func (c *Client) Display() *playout.Display {
	return shown(c, func(p *presentation) *playout.Display { return p.display })
}

// Player returns the last document's presentation scheduler (nil before one).
func (c *Client) Player() *playout.Player {
	return shown(c, func(p *presentation) *playout.Player { return p.player })
}

// Buffers returns the last document's buffer set (nil before one).
func (c *Client) Buffers() *buffer.Set {
	return shown(c, func(p *presentation) *buffer.Set { return p.bufs })
}

// Monitor returns the client QoS manager (nil before the first document).
func (c *Client) Monitor() *qos.ClientMonitor {
	return shown(c, func(p *presentation) *qos.ClientMonitor { return p.monitor })
}

// StartupDelay returns the deliberate initial delay of the last
// presentation (zero until playout started).
func (c *Client) StartupDelay() time.Duration {
	return shown(c, func(p *presentation) time.Duration { return p.startDelay })
}

// History returns the names of documents viewed, oldest first.
func (c *Client) History() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.history))
	copy(out, c.history)
	return out
}

// SuspendToken returns the resume token held for a server.
func (c *Client) SuspendToken(host string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server(host).token
}

// SessionID returns the session identifier granted by a server ("" when not
// connected there).
func (c *Client) SessionID(host string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server(host).session
}

// Scenario returns the last document's scenario (nil before one).
func (c *Client) Scenario() *scenario.Scenario {
	return shown(c, func(p *presentation) *scenario.Scenario { return p.sc })
}
