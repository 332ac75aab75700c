package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/stats"
)

// ControlPort is the well-known control port of every multimedia server.
const ControlPort = protocol.ControlPort

// mediaPort is the source port media senders transmit from.
const mediaPort = 5001

// Options tunes a server.
type Options struct {
	// Capacity is the outbound bandwidth for admission control (bits/s).
	Capacity float64
	// Grace is how long a suspended connection is kept alive.
	Grace time.Duration
	// PreRoll is the flow scheduler's transmission lead over playout
	// deadlines (fills the client's media time window).
	PreRoll time.Duration
	// Policy is the QoS grading policy; the zero value is the paper's.
	Policy qos.Policy
	// DisableGrading turns the long-term quality adaptation off (the E3
	// ablation baseline).
	DisableGrading bool
	// HeartbeatEvery is the expected client heartbeat period; the liveness
	// sweep runs at this cadence.
	HeartbeatEvery time.Duration
	// LivenessMisses is how many consecutive missed heartbeats declare a
	// client dead and auto-suspend its session (the grace timer then runs
	// as for a voluntary suspend). Liveness is only enforced on sessions
	// that have sent at least one heartbeat.
	LivenessMisses int
	// Obs, when set, receives session/grading/admission telemetry and
	// serves the control-protocol stats snapshot.
	Obs *obs.Scope

	// SharedFlows is the attach policy at document request: when set, a
	// session's time-sensitive streams subscribe to the document's shared
	// flow — one encode and one packet assembly per frame regardless of the
	// audience size, late joiners patched from the flow's segment cache —
	// instead of each getting a private flow (see flow.go). Off by default.
	SharedFlows bool

	// Directory, when set, is the cluster's placement/load view: it makes
	// the advertised peer set per-document, lets doc requests for documents
	// homed elsewhere answer with a handoff instead of "not found", and
	// informs redirect target ordering. Nil means standalone operation.
	Directory Directory
	// RedirectWatermark, as a fraction of Capacity (e.g. 0.8), makes the
	// server answer fresh Connects with an in-protocol redirect to its
	// less-loaded peers once reserved bandwidth reaches the watermark.
	// Zero disables bandwidth-watermark redirects.
	RedirectWatermark float64
	// SessionWatermark redirects fresh Connects once this many sessions
	// are resident. Zero disables session-count redirects.
	SessionWatermark int
	// ClusterKey is the shared HMAC key signing cross-server handoff
	// tickets. Empty disables ticket minting (handoffs degrade to a plain
	// redirect + credentialed reconnect).
	ClusterKey []byte
}

func (o *Options) fill() {
	if o.Capacity <= 0 {
		o.Capacity = 10_000_000
	}
	if o.Grace <= 0 {
		o.Grace = 30 * time.Second
	}
	if o.PreRoll <= 0 {
		o.PreRoll = 2 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.LivenessMisses <= 0 {
		o.LivenessMisses = 3
	}
}

// Server is one multimedia server node. Session and dedup state is split
// across address-hashed shards (see shard.go for the layout and the lock
// order); everything else sits behind small dedicated leaf locks.
type Server struct {
	// Name is the server's host name on the network.
	Name string
	// addr is the server's control address, built once.
	addr netsim.Addr

	clk   clock.Clock
	net   netsim.Net
	db    *Database
	users *auth.DB
	adm   *qos.Admission
	opts  Options

	shards [ctrlShards]ctrlShard

	// sessionCount mirrors the total resident sessions across shards so
	// Sessions() and the sessions gauge never touch a shard lock.
	sessionCount atomic.Int64
	nextID       atomic.Int64
	nextSSRC     atomic.Uint32

	peersMu sync.RWMutex
	peers   []string // other servers' host names for federated search

	searchMu  sync.Mutex
	nextQuery int
	searches  map[int]*pendingSearch

	// annotations holds user remarks per document name ("the user may
	// also annotate the selected document with his own remarks").
	annMu       sync.Mutex
	annotations map[string][]protocol.AnnotationRecord

	// Data-plane counters, resolved once at construction so the per-frame
	// emit path increments atomics directly instead of doing a registry
	// lookup per frame (shared no-ops when telemetry is off). mFrames counts
	// ENCODES (one per flow frame however many subscribers it fans to);
	// mDelivered counts per-subscriber frame deliveries, so the two diverge
	// exactly by the fan-out factor.
	mFrames    *stats.Counter
	mPackets   *stats.Counter
	mBytes     *stats.Counter
	mDelivered *stats.Counter

	// Shared-flow state: the registry of live shared flows, the cached
	// multi-send assertion (nil when the transport lacks one — sendMedia then
	// loops), and the flow lifecycle counters.
	flows         flowRegistry
	multi         netsim.MultiSender
	cFlowsCreated *stats.Counter
	cFlowsTorn    *stats.Counter
	cFlowAttaches *stats.Counter
	cFlowDetaches *stats.Counter
	cFlowCatchup  *stats.Counter

	// Latency-span instruments, likewise resolved once (shared no-ops when
	// telemetry is off): sampled frame spans for the emit→wire hop, the
	// control-dispatch service time.
	spans   *obs.FrameSpans
	hHandle *stats.DurationHistogram

	// Cluster counters, resolved once: admission redirects issued, handoff
	// tickets minted, and handoff tickets accepted from peers.
	cRedirects      *stats.Counter
	cHandoffs       *stats.Counter
	cHandoffAccepts *stats.Counter
}

// session is one client's server-side state.
type session struct {
	id   string
	user string
	// class is the user's pricing contract, kept so a cross-server handoff
	// ticket can carry it without a subscriber-database lookup.
	class      qos.PricingClass
	client     netsim.Addr
	connID     int
	floorLevel int
	// qosMgr and ssrcToID grade the current document's streams; each
	// document request builds both, so they are nil before the first.
	qosMgr *qos.Manager
	// senders holds the document's streams in flow-scenario order. Every
	// bulk operation (start, pause, park, report, stop) walks it in that
	// order, so streams due at the same instant leave in a repeatable order;
	// stopSendersLocked replaces the slice, never mutates it, so a snapshot
	// taken under the shard lock stays valid after unlock.
	senders  []*sender
	ssrcToID map[uint32]string
	doc      string
	// state is where the session is in Figure 4, stepped by every handler
	// through the same table the client runs (see step).
	state       protocol.Machine
	resumeToken string
	graceTimer  *clock.Timer
	srTimer     *clock.Timer
	// liveTimer fires at the liveness deadline (see livenessFire); nil
	// while the session is not liveness-policed.
	liveTimer  *clock.Timer
	flowOrigin time.Time
	startedAt  time.Time
	// lastBeat is the arrival time of the client's latest heartbeat (zero
	// until the first one: such sessions are exempt from liveness policing).
	lastBeat time.Time

	// shard is the index of the ctrlShard currently holding the session;
	// it changes only under both the old and the new shard's lock (see
	// lockSession). renegQueued dedups the shard's renegotiation batch.
	shard       atomic.Int32
	renegQueued atomic.Bool
}

func (sess *session) suspended() bool { return sess.state.State() == protocol.StSuspended }

// userPaused reports whether the user paused the presentation before it was
// suspended: parking leaves a user-paused flow as it was, paused but not
// parked.
func (sess *session) userPaused() bool {
	for _, snd := range sess.senders {
		fl := snd.flow()
		fl.mu.Lock()
		paused := fl.paused && !fl.parked
		fl.mu.Unlock()
		if paused {
			return true
		}
	}
	return false
}

// sender returns the session's sender for a stream ID, or nil.
func (sess *session) sender(id string) *sender {
	for _, snd := range sess.senders {
		if snd.stream.ID == id {
			return snd
		}
	}
	return nil
}

type pendingSearch struct {
	client  netsim.Addr
	reqID   uint32
	hits    []protocol.TopicInfo
	waiting int
	timer   *clock.Timer
}

// New creates a server and registers its control listener on the network.
// It fails when the network cannot bind the server's control address (only
// possible on the live transport).
func New(name string, clk clock.Clock, net netsim.Net, users *auth.DB, db *Database, opts Options) (*Server, error) {
	opts.fill()
	s := &Server{
		Name:        name,
		addr:        netsim.MakeAddr(name, ControlPort),
		clk:         clk,
		net:         net,
		db:          db,
		users:       users,
		adm:         qos.NewAdmission(opts.Capacity),
		opts:        opts,
		searches:    map[int]*pendingSearch{},
		annotations: map[string][]protocol.AnnotationRecord{},
	}
	s.nextSSRC.Store(1000)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.sessions = map[string]*session{}
		sh.byToken = map[string]*session{}
		sh.byID = map[string]*session{}
		sh.dedup = map[string]*dedupRing{}
	}
	s.adm.SetObs(opts.Obs)
	s.mFrames = opts.Obs.Counter("server_media_frames_sent")
	s.mPackets = opts.Obs.Counter("server_media_packets_sent")
	s.mBytes = opts.Obs.Counter("server_media_bytes_sent")
	s.mDelivered = opts.Obs.Counter("server_media_frames_delivered")
	s.cFlowsCreated = opts.Obs.Counter("server_flows_created")
	s.cFlowsTorn = opts.Obs.Counter("server_flows_torn_down")
	s.cFlowAttaches = opts.Obs.Counter("server_flow_attaches")
	s.cFlowDetaches = opts.Obs.Counter("server_flow_detaches")
	s.cFlowCatchup = opts.Obs.Counter("server_flow_catchup_frames")
	s.multi, _ = net.(netsim.MultiSender)
	s.spans = opts.Obs.FrameSpans()
	s.hHandle = opts.Obs.HistogramBounds("server_ctrl_handle", stats.MicroLatencyBounds()...)
	s.cRedirects = opts.Obs.Counter("cluster_redirects")
	s.cHandoffs = opts.Obs.Counter("cluster_handoffs")
	s.cHandoffAccepts = opts.Obs.Counter("cluster_handoff_accepts")
	for i := range s.shards {
		s.shards[i].mu.hWait = opts.Obs.HistogramBounds(
			obs.Label("server_lock_wait", "shard", fmt.Sprintf("%02d", i)),
			stats.MicroLatencyBounds()...)
	}
	if err := net.Listen(s.ctrlAddr(), s.handle); err != nil {
		return nil, fmt.Errorf("server %s: %w", name, err)
	}
	return s, nil
}

func (s *Server) ctrlAddr() netsim.Addr { return s.addr }

// SetPeers configures the other servers for federated search.
func (s *Server) SetPeers(names []string) {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	s.peers = append([]string(nil), names...)
}

// peerList snapshots the federated-search peer set.
func (s *Server) peerList() []string {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	return append([]string(nil), s.peers...)
}

// Database exposes the server's document store.
func (s *Server) Database() *Database { return s.db }

// Admission exposes the admission controller (for experiments).
func (s *Server) Admission() *qos.Admission { return s.adm }

// reply sends a fire-and-forget control message (request ID 0). Send
// copies the payload before it returns, so the frame is encoded into the
// codec's scratch.
func (s *Server) reply(to netsim.Addr, t protocol.MsgType, body protocol.Message) {
	if err := protocol.WriteFrame(t, body, func(frame []byte) { s.sendCtrl(to, frame) }); err != nil {
		panic(err)
	}
}

// replyReq answers a request, echoing its request ID and caching the
// encoded reply for idempotent retransmission handling.
func (s *Server) replyReq(to netsim.Addr, reqID uint32, t protocol.MsgType, body protocol.Message) {
	if reqID == 0 {
		s.reply(to, t, body)
		return
	}
	frame, err := protocol.NewFrame(t, 0, body)
	if err != nil {
		panic(err)
	}
	s.replyFrame(to, reqID, frame)
}

// replyFrame answers a request with a kept request-ID-0 frame, caching the
// frame itself, which may be shared (the catalogue's Topics frame is), and
// sending it with the request's ID written in.
func (s *Server) replyFrame(to netsim.Addr, reqID uint32, frame []byte) {
	if reqID != 0 {
		sh := s.shardOf(string(to))
		sh.dmu.Lock()
		s.dedupRingLocked(sh, string(to)).put(reqID, frame)
		sh.dmu.Unlock()
	}
	s.sendReply(to, reqID, frame)
}

// sendReply sends a kept request-ID-0 reply frame as the answer to request
// reqID.
func (s *Server) sendReply(to netsim.Addr, reqID uint32, frame []byte) {
	protocol.WriteReply(frame, reqID, func(f []byte) { s.sendCtrl(to, f) })
}

// sendCtrl puts one control frame on the wire, making transport refusals
// visible instead of silently losing replies.
func (s *Server) sendCtrl(to netsim.Addr, frame []byte) {
	err := s.net.Send(netsim.Packet{
		From:     s.ctrlAddr(),
		To:       to,
		Payload:  frame,
		Reliable: true,
	})
	if err != nil {
		s.opts.Obs.Counter("server_reply_send_failures").Inc()
		s.opts.Obs.Emit(obs.EvSendFailure, string(to), 0, "control send failed: "+err.Error())
	}
}

// onStats answers a sessionless telemetry snapshot request: the registry's
// sorted metric points plus the shape of the trace. With telemetry
// off it answers OK with no metrics, so monitoring tools can distinguish
// "off" from "unreachable".
func (s *Server) onStats(from netsim.Addr, reqID uint32) {
	res := protocol.StatsResult{OK: true, Server: s.Name}
	if sc := s.opts.Obs; sc.Enabled() {
		res.Metrics = sc.Registry().Snapshot()
		res.TraceEvents = sc.Trace().Len()
		res.TraceDropped = sc.Trace().Dropped()
	}
	s.replyReq(from, reqID, protocol.MsgStatsResult, &res)
}

func (s *Server) onSubscribe(from netsim.Addr, reqID uint32, m protocol.SubscriptionForm) {
	err := s.users.Subscribe(auth.User{
		Name: m.User, Password: m.Password, RealName: m.RealName,
		Address: m.Address, Email: m.Email, Phone: m.Phone, Class: m.Class,
	}, s.clk.Now())
	res := protocol.SubscribeResult{OK: err == nil}
	if err != nil {
		res.Reason = err.Error()
	}
	s.replyReq(from, reqID, protocol.MsgSubscribeResult, &res)
}

func (s *Server) onSearch(from netsim.Addr, reqID uint32, m protocol.Search) {
	local := s.db.Search(m.Token, s.Name)
	if m.NoForward {
		// Fan-out query from a peer server: answer directly.
		s.replyReq(from, reqID, protocol.MsgSearchResult, &protocol.SearchResult{
			SearchID: m.SearchID, Hits: local,
		})
		return
	}
	peers := s.peerList()
	if len(peers) == 0 {
		s.replyReq(from, reqID, protocol.MsgSearchResult, &protocol.SearchResult{Hits: local})
		return
	}
	s.searchMu.Lock()
	s.nextQuery++
	qid := s.nextQuery
	ps := &pendingSearch{client: from, reqID: reqID, hits: local, waiting: len(peers)}
	s.searches[qid] = ps
	// Safety timeout: answer with whatever arrived.
	ps.timer = s.clk.AfterFunc(2*time.Second, func() { s.finishSearch(qid) })
	s.searchMu.Unlock()
	for _, p := range peers {
		s.reply(netsim.MakeAddr(p, ControlPort), protocol.MsgSearch, &protocol.Search{
			Token: m.Token, NoForward: true, SearchID: qid,
		})
	}
}

func (s *Server) onSearchResult(m protocol.SearchResult) {
	s.searchMu.Lock()
	ps, ok := s.searches[m.SearchID]
	if !ok {
		s.searchMu.Unlock()
		return
	}
	ps.hits = append(ps.hits, m.Hits...)
	ps.waiting--
	done := ps.waiting == 0
	s.searchMu.Unlock()
	if done {
		s.finishSearch(m.SearchID)
	}
}

func (s *Server) finishSearch(qid int) {
	s.searchMu.Lock()
	ps, ok := s.searches[qid]
	if !ok {
		s.searchMu.Unlock()
		return
	}
	delete(s.searches, qid)
	if ps.timer != nil {
		ps.timer.Stop()
	}
	hits := ps.hits
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Server != hits[j].Server {
			return hits[i].Server < hits[j].Server
		}
		return hits[i].Name < hits[j].Name
	})
	client := ps.client
	s.searchMu.Unlock()
	s.replyReq(client, ps.reqID, protocol.MsgSearchResult, &protocol.SearchResult{Hits: hits})
}

func (s *Server) onAnnotate(from netsim.Addr, m protocol.Annotate) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		return
	}
	doc := sess.doc
	user := sess.user
	sh.mu.Unlock()
	s.annMu.Lock()
	s.annotations[doc] = append(s.annotations[doc], protocol.AnnotationRecord{
		User: user, Text: m.Text, AtUnixMilli: s.clk.Now().UnixMilli(),
	})
	s.annMu.Unlock()
	s.users.LogRetrieval(user, fmt.Sprintf("annotate %s: %s", doc, m.Text), s.clk.Now())
}

// onListAnnotations returns the remarks stored for a document.
func (s *Server) onListAnnotations(from netsim.Addr, reqID uint32, m protocol.ListAnnotations) {
	doc := m.Doc
	if doc == "" {
		sh := s.shardOf(string(from))
		sh.mu.RLock()
		if sess, ok := sh.sessions[string(from)]; ok {
			doc = sess.doc
		}
		sh.mu.RUnlock()
	}
	s.annMu.Lock()
	recs := append([]protocol.AnnotationRecord(nil), s.annotations[doc]...)
	s.annMu.Unlock()
	s.replyReq(from, reqID, protocol.MsgAnnotations, &protocol.Annotations{Doc: doc, Records: recs})
}

func minInt(a, b int) int {
	if a <= 0 {
		return b
	}
	if a < b {
		return a
	}
	return b
}
