package server

import (
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

// This file is the control plane's session lifecycle: the packet dispatch
// and every handler that touches sharded session state. Handlers lock only
// the shard of the client address they serve; the resume paths, which may
// move a session between addresses (and thus shards), go through
// claimSessionFor's ordered double-lock.

// dedupable reports whether a message type is a client request whose
// handling must be idempotent under retransmission.
func dedupable(mt protocol.MsgType) bool {
	switch mt {
	case protocol.MsgConnect, protocol.MsgSubscribe, protocol.MsgTopicList,
		protocol.MsgSearch, protocol.MsgDocRequest, protocol.MsgSuspend,
		protocol.MsgListAnnotations, protocol.MsgStatsRequest:
		return true
	}
	return false
}

// handle dispatches one control packet, observing the wall time spent in
// the handler (decode, dedup check, and the message's own work) into the
// server_ctrl_handle histogram.
func (s *Server) handle(pkt netsim.Packet) {
	t0 := time.Now()
	s.handlePacket(pkt)
	s.hHandle.Observe(time.Since(t0))
}

func (s *Server) handlePacket(pkt netsim.Packet) {
	mt, reqID, body, err := protocol.DecodeReq(pkt.Payload)
	if !s.decoded(pkt.From, mt, reqID, err) {
		return
	}
	if reqID != 0 && dedupable(mt) {
		sh := s.shardOf(string(pkt.From))
		sh.dmu.Lock()
		ring := s.dedupRingLocked(sh, string(pkt.From))
		if frame, seen := ring.get(reqID); seen {
			sh.dmu.Unlock()
			s.opts.Obs.Counter("server_ctrl_dedup_hits").Inc()
			s.opts.Obs.Emit(obs.EvCtrlDedup, string(pkt.From), int64(reqID), "duplicate "+mt.String())
			if frame != nil {
				// The reply is known: re-send it without re-running the
				// handler. A nil frame means the original is still in
				// flight, so the duplicate is simply dropped.
				s.sendReply(pkt.From, reqID, frame)
			}
			return
		}
		ring.put(reqID, nil)
		sh.dmu.Unlock()
	}
	switch mt {
	case protocol.MsgConnect:
		var m protocol.Connect
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onConnect(pkt.From, reqID, m)
		}
	case protocol.MsgSubscribe:
		var m protocol.SubscriptionForm
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onSubscribe(pkt.From, reqID, m)
		}
	case protocol.MsgTopicList:
		s.replyFrame(pkt.From, reqID, s.db.TopicsFrame(s.Name))
	case protocol.MsgSearch:
		var m protocol.Search
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onSearch(pkt.From, reqID, m)
		}
	case protocol.MsgSearchResult:
		var m protocol.SearchResult
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onSearchResult(m)
		}
	case protocol.MsgDocRequest:
		var m protocol.DocRequest
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onDocRequest(pkt.From, reqID, m)
		}
	case protocol.MsgHeartbeat:
		var m protocol.Heartbeat
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onHeartbeat(pkt.From, m)
		}
	case protocol.MsgFeedback:
		var m protocol.Feedback
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onFeedback(pkt.From, m)
		}
	case protocol.MsgPause, protocol.MsgResume:
		s.onMediaOp(pkt.From, mt, protocol.MediaOp{})
	case protocol.MsgDisableMedia:
		var m protocol.MediaOp
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onMediaOp(pkt.From, mt, m)
		}
	case protocol.MsgAnnotate:
		// Annotations are accepted and logged with the access trail.
		var m protocol.Annotate
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onAnnotate(pkt.From, m)
		}
	case protocol.MsgListAnnotations:
		var m protocol.ListAnnotations
		if s.decoded(pkt.From, mt, reqID, protocol.DecodeBody(body, &m)) {
			s.onListAnnotations(pkt.From, reqID, m)
		}
	case protocol.MsgSuspend:
		s.onSuspend(pkt.From, reqID)
	case protocol.MsgDisconnect:
		s.onDisconnect(pkt.From)
	case protocol.MsgStatsRequest:
		s.onStats(pkt.From, reqID)
	}
}

// decoded reports whether a frame or body decoded. A failure is counted,
// traced and dropped, like a lost packet.
func (s *Server) decoded(from netsim.Addr, mt protocol.MsgType, reqID uint32, err error) bool {
	if err == nil {
		return true
	}
	s.opts.Obs.Counter("server_ctrl_decode_errors").Inc()
	s.opts.Obs.Emit(obs.EvCtrlDecodeError, string(from), int64(reqID), mt.String()+": "+err.Error())
	return false
}

// onHeartbeat refreshes the session's liveness deadline and acks. An ack
// with OK=false tells the client this server holds no such session — the
// fast path to failover after a server restart. A heartbeat whose session
// ID merely mismatches the live session at that address (a stale beat that
// raced a reattach) is NOT a lost session: it is acked OK with the current
// id, without refreshing liveness, so the client neither fails over nor
// keeps a dead incarnation alive.
func (s *Server) onHeartbeat(from netsim.Addr, m protocol.Heartbeat) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok || sess.suspended() {
		sh.mu.Unlock()
		s.reply(from, protocol.MsgHeartbeatAck, &protocol.HeartbeatAck{OK: false})
		return
	}
	id, doc := sess.id, sess.doc
	if m.SessionID == "" || m.SessionID == id {
		s.beatLocked(sess)
		sh.mu.Unlock()
		// Every ack refreshes the per-document replica set, so the client's
		// failover targets track the document it is actually viewing.
		s.reply(from, protocol.MsgHeartbeatAck, &protocol.HeartbeatAck{
			OK: true, SessionID: id, Peers: s.peersForDoc(doc)})
		return
	}
	sh.mu.Unlock()
	s.opts.Obs.Counter("server_stale_heartbeats").Inc()
	s.opts.Obs.Emit(obs.EvLiveness, string(from), 0,
		"stale heartbeat for "+m.SessionID+"; live session is "+id)
	s.reply(from, protocol.MsgHeartbeatAck, &protocol.HeartbeatAck{
		OK: true, SessionID: id, Peers: s.peersForDoc(doc)})
}

// connectExtras fills the recovery parameters every successful
// ConnectResult carries: the grace window bounding recovery probing, and
// the replica list for failover.
func (s *Server) connectExtras(res *protocol.ConnectResult) {
	res.GraceSecs = int(s.opts.Grace.Seconds())
	res.Peers = s.peerList()
}

// step advances the session through Figure 4. An input the table refuses
// changes nothing: it is counted in server_illegal_inputs and traced, and the
// caller answers as it would have without the table. Caller holds the
// session's shard lock, or has not published the session yet.
func (s *Server) step(sess *session, in protocol.Input) bool {
	if sess.state.Try(in) {
		return true
	}
	s.opts.Obs.Counter("server_illegal_inputs").Inc()
	s.opts.Obs.Emit(obs.EvIllegalInput, sess.id, int64(in),
		"input "+in.String()+" illegal in state "+sess.state.State().String())
	return false
}

// reattachLocked moves a (possibly suspended) session to a client address,
// stopping its grace timer and retiring its resume token. Shared by the
// resume-token return and the liveness-recovery ResumeSession path. Caller
// holds the locks of shards oi (owning) and ni (target) via lockPair.
func (s *Server) reattachLocked(oi, ni int, sess *session, from netsim.Addr) {
	old, neu := &s.shards[oi], &s.shards[ni]
	sess.graceTimer.Stop()
	sess.graceTimer = nil
	sess.liveTimer.Stop()
	sess.liveTimer = nil
	if sess.resumeToken != "" {
		delete(old.byToken, sess.resumeToken)
		sess.resumeToken = ""
	}
	oldAddr := string(sess.client)
	if cur, ok := old.sessions[oldAddr]; ok && cur == sess {
		delete(old.sessions, oldAddr)
		s.sessionCount.Add(-1)
	}
	delete(old.byID, sess.id)
	if oldAddr != string(from) {
		// The old address's reply cache is sessionless now: its TTL timer
		// runs again so it cannot outlive the dedup window.
		s.releaseRingLocked(old, oldAddr)
	}
	sess.client = from
	if _, existed := neu.sessions[string(from)]; !existed {
		s.sessionCount.Add(1)
	}
	neu.sessions[string(from)] = sess
	neu.byID[sess.id] = sess
	sess.shard.Store(int32(ni))
}

// recoverLocked resumes a session after a liveness loss. A suspended one
// goes back to the presentation it left, paused when the user had paused it,
// or to browsing when there is none. Only the senders the suspend parked
// wake: one the user paused keeps its pause-shifted origin for the user's own
// Resume. A fresh liveness deadline keeps the liveness timer from instantly
// re-suspending. Caller holds the session's shard lock.
func (s *Server) recoverLocked(sess *session, suspended bool) {
	if suspended && len(sess.senders) == 0 {
		s.step(sess, protocol.InReturn)
	} else if suspended && s.step(sess, protocol.InRecover) && sess.userPaused() {
		s.step(sess, protocol.InPause)
	}
	s.beatLocked(sess)
	for _, snd := range sess.senders {
		snd.unpark()
	}
	if len(sess.senders) > 0 {
		if sess.srTimer != nil {
			sess.srTimer.Stop()
		}
		sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	}
}

func (s *Server) onConnect(from netsim.Addr, reqID uint32, m protocol.Connect) {
	now := s.clk.Now()

	// Coming back to a session skips authentication and admission entirely.
	// A resume token returns within the grace period from a suspend the user
	// chose, and lands in browsing: the client released its media ports when
	// it left, so the suspended presentation's flows stop. A session ID
	// recovers from a liveness loss the user never chose: a session that
	// survived (possibly auto-suspended for silence) goes back to the
	// presentation it left, and one that is gone sends the client to fail
	// over.
	if m.ResumeToken != "" || m.ResumeSession != "" {
		sess, oi, ni := s.claimSessionFor(from, func(sh *ctrlShard) *session {
			if m.ResumeToken != "" {
				return sh.byToken[m.ResumeToken]
			}
			return sh.byID[m.ResumeSession]
		})
		switch {
		case sess == nil && m.ResumeToken != "":
			s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
				Reason: "resume token expired"})
			return
		case sess == nil:
			s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
				SessionLost: true, Reason: "unknown session " + m.ResumeSession})
			return
		}
		recovered := m.ResumeToken == "" && sess.suspended()
		s.reattachLocked(oi, ni, sess, from)
		if m.ResumeToken != "" {
			s.step(sess, protocol.InReturn)
			s.stopSendersLocked(sess)
		} else {
			s.recoverLocked(sess, recovered)
		}
		s.unlockPair(oi, ni)
		if recovered {
			s.opts.Obs.Counter("server_sessions_resumed").Inc()
			s.opts.Obs.Emit(obs.EvSessionResume, sess.user, int64(sess.connID),
				"session "+sess.id+" resumed after liveness loss")
		}
		res := protocol.ConnectResult{OK: true, SessionID: sess.id, Resumed: true}
		s.connectExtras(&res)
		s.replyReq(from, reqID, protocol.MsgConnectResult, &res)
		return
	}

	// A signed handoff ticket admits the session as a continuation from a
	// peer server: the source already authenticated the user, so the ticket
	// (signature + expiry) replaces the password round-trip, and the connect
	// is exempt from the admission-redirect watermark — shedding a session
	// mid-handoff would orphan it.
	user, class := m.User, qos.Standard
	viaHandoff := false
	if m.Handoff != nil {
		if err := m.Handoff.Verify(s.opts.ClusterKey, now); err != nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
				OK: false, Reason: "handoff ticket rejected: " + err.Error()})
			return
		}
		user, class = m.Handoff.User, m.Handoff.Class
		viaHandoff = true
		s.cHandoffAccepts.Inc()
		s.opts.Obs.Emit(obs.EvHandoff, user, 0,
			"accepted handoff of "+m.Handoff.Doc+" from "+m.Handoff.From)
	} else {
		// Authentication.
		u, err := s.users.Authenticate(m.User, m.Password, now)
		if err == auth.ErrUnknownUser {
			s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
				OK: false, NeedSubscription: true, Reason: "please subscribe"})
			return
		}
		if err != nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
				OK: false, Reason: err.Error()})
			return
		}
		class = u.Class
	}

	// Load-aware admission redirect: over the watermark, a fresh connect is
	// pointed at less-loaded peers instead of rejected. Failover and handoff
	// connects are exempt — they carry a session that must land somewhere.
	if !m.Failover && !viaHandoff {
		if reason, over := s.overWatermark(); over {
			if targets := s.redirectTargets(nil); len(targets) > 0 {
				s.cRedirects.Inc()
				s.opts.Obs.Emit(obs.EvRedirect, user, 0, "redirect: "+reason)
				s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
					OK: false, Redirect: true, Peers: targets, Reason: reason})
				return
			}
		}
	}

	// Admission: network condition + connection load + QoS floor +
	// pricing contract.
	peak := m.PeakRate
	if peak <= 0 {
		peak = 2_000_000
	}
	dec := s.adm.Request(qos.ConnRequest{
		User: user, Class: class, PeakRate: peak, MinRate: m.MinRate,
		Resumed: m.Failover || viaHandoff,
	})
	if dec.Verdict == qos.Rejected {
		s.replyReq(from, reqID, protocol.MsgConnectResult, &protocol.ConnectResult{
			OK: false, Reason: dec.Reason})
		return
	}
	sess := &session{
		id:         fmt.Sprintf("%s-sess-%d", s.Name, s.nextID.Add(1)),
		user:       user,
		class:      class,
		client:     from,
		connID:     dec.ConnID,
		floorLevel: m.FloorLevel,
		startedAt:  now,
	}
	s.step(sess, protocol.InConnect)
	s.step(sess, protocol.InAuthOK)
	ni := shardIndex(string(from))
	sess.shard.Store(int32(ni))
	sh := &s.shards[ni]
	sh.mu.Lock()
	if _, existed := sh.sessions[string(from)]; !existed {
		s.sessionCount.Add(1)
	}
	sh.sessions[string(from)] = sess
	sh.byID[sess.id] = sess
	sh.mu.Unlock()
	s.opts.Obs.Gauge("server_sessions").Set(s.sessionCount.Load())
	s.opts.Obs.Emit(obs.EvSessionStart, user, int64(dec.ConnID), "session "+sess.id)
	res := protocol.ConnectResult{
		OK: true, SessionID: sess.id,
		GrantedRate: dec.Rate, Degraded: dec.Verdict == qos.AdmittedDegraded,
	}
	s.connectExtras(&res)
	s.replyReq(from, reqID, protocol.MsgConnectResult, &res)
}

func (s *Server) onDocRequest(from netsim.Addr, reqID uint32, m protocol.DocRequest) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok || !s.step(sess, protocol.InRequestDoc) {
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgDocResponse, &protocol.DocResponse{
			OK: false, Reason: "no active session"})
		return
	}
	doc, ok := s.db.Get(m.Name)
	if !ok {
		// Not held here — but if the cluster directory knows replicas that
		// do hold it, hand the session off instead of failing the request.
		if dir := s.opts.Directory; dir != nil {
			var holders []string
			for _, r := range dir.Replicas(m.Name) {
				if r != s.Name {
					holders = append(holders, r)
				}
			}
			if len(holders) > 0 {
				s.issueHandoff(sh, sess, from, reqID, m.Name, holders)
				return
			}
		}
		s.step(sess, protocol.InDocFail)
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgDocResponse, &protocol.DocResponse{
			OK: false, Reason: "document not found: " + m.Name})
		return
	}
	// Tear down any previous document's flows.
	s.stopSendersLocked(sess)
	sess.doc = m.Name
	sess.qosMgr = qos.NewManager(s.clk, s.opts.Policy)
	sess.qosMgr.SetObs(s.opts.Obs)
	sess.ssrcToID = map[uint32]string{}
	s.opts.Obs.Counter("server_docs_served").Inc()

	// The flow scheduler computes the flow scenario and activates the
	// media servers. The pre-roll lead matches the client's media time
	// window (plus a margin), so that the deliberate initial delay fills
	// each buffer to exactly its window.
	preRoll := s.opts.PreRoll
	if m.WindowMS > 0 {
		preRoll = time.Duration(m.WindowMS)*time.Millisecond + 100*time.Millisecond
	}
	// Each stream's media source is built once, priced here and sent below.
	srcs := make(map[*scenario.Stream]media.Source, len(doc.Scenario.Streams))
	flows := scenario.BuildFlow(doc.Scenario, scenario.FlowOptions{
		PreRoll: preRoll,
		Rate: func(st *scenario.Stream) float64 {
			src := media.ForStream(st)
			srcs[st] = src
			return src.Bitrate(0)
		},
	})
	var announces []protocol.StreamAnnounce
	clientHost := from.Host()
	base := m.MediaPortBase
	if base <= 0 {
		base = 7000
	}
	// A short setup delay keeps the first media packets from racing the
	// DocResponse on the unordered datagram path.
	origin := s.clk.Now().Add(200 * time.Millisecond)
	for i, f := range flows {
		src := srcs[f.Stream]
		port := base + i
		snd := &sender{stream: f.Stream, to: netsim.MakeAddr(clientHost, port), grade: sess.qosMgr.Register(qos.StreamConfig{
			ID:     f.Stream.ID,
			Kind:   f.Stream.Type,
			Group:  f.Stream.SyncGroup,
			Levels: src.Levels(),
			Floor:  minInt(sess.floorLevel, src.Levels()-1),
		})}
		sess.senders = append(sess.senders, snd)
		// Attach policy: with SharedFlows, a time-sensitive stream whose
		// session grades at the shared level joins the document's registered
		// flow — the announce then carries THAT flow's SSRC and the client
		// receives the same packets as every other subscriber, a late joiner
		// after a catch-up patch from the flow's segment cache. Every other
		// stream gets a private flow of its own (see flow.go).
		if s.opts.SharedFlows && f.Stream.Type.TimeSensitive() && snd.grade.LevelMatches(0) {
			snd.join(s, flowKey{doc: m.Name, stream: f.Stream.ID, level: 0}, src, f.SendAt, origin)
		} else {
			snd.fl = newFlow(s, snd, src, f.SendAt, origin, rtp.NewSender(s.nextSSRC.Add(1), src.PayloadType(0), 0))
		}
		ssrc := snd.fl.ssrc
		sess.ssrcToID[ssrc] = f.Stream.ID
		announces = append(announces, protocol.StreamAnnounce{
			StreamID:        f.Stream.ID,
			SSRC:            ssrc,
			Port:            port,
			PayloadType:     byte(src.PayloadType(0)),
			Rate:            f.Rate,
			FrameIntervalUS: src.FrameInterval().Microseconds(),
			Levels:          src.Levels(),
		})
	}
	s.users.LogRetrieval(sess.user, m.Name, s.clk.Now())
	s.step(sess, protocol.InDocReady)
	sh.mu.Unlock()

	s.replyReq(from, reqID, protocol.MsgDocResponse, &protocol.DocResponse{
		OK:          true,
		Name:        doc.Name,
		ScenarioSrc: doc.Source,
		Streams:     announces,
		Peers:       s.peersForDoc(doc.Name),
	})
	// Activate the media servers and the periodic RTCP sender reports. The
	// session may have moved shards (or been torn down) while the reply
	// was on the wire, so re-locate it; starting a stopped sender is a
	// no-op, and sendSenderReports revalidates before re-arming.
	sh2, _ := s.lockSession(sess)
	sess.flowOrigin = origin
	for _, snd := range sess.senders {
		snd.start()
	}
	if sess.srTimer != nil {
		sess.srTimer.Stop()
	}
	sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	sh2.mu.Unlock()
}

// sendSenderReports emits one RTCP SR per active media sender so receivers
// can map RTP timestamps to the sender's wall clock (RFC 1889 §6.3). The
// shard lock covers only the session snapshot; report construction walks
// each stream's flow under that flow's own lock and the sends happen
// lock-free.
func (s *Server) sendSenderReports(sess *session) {
	sh, _ := s.lockSession(sess)
	if sess.suspended() || sh.byID[sess.id] != sess {
		sh.mu.Unlock()
		return
	}
	now := s.clk.Now()
	mediaTime := now.Sub(sess.flowOrigin)
	if mediaTime < 0 {
		mediaTime = 0
	}
	snds := sess.senders
	if len(snds) > 0 {
		sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	}
	sh.mu.Unlock()
	from := netsim.MakeAddr(s.Name, mediaPort)
	for _, snd := range snds {
		if sr := snd.flow().report(now, mediaTime); sr != nil {
			s.net.Send(netsim.Packet{From: from, To: snd.to, Payload: sr.Marshal()})
		}
	}
}

func (s *Server) onFeedback(from netsim.Addr, m protocol.Feedback) {
	// One short read-side critical section takes the session's SSRC map
	// and QoS manager; report decoding and grading then run off the shard
	// lock (the manager has its own fine-grained lock), and any rate change
	// is queued for the batched renegotiation tick instead of renegotiating
	// per packet. The map needs no copy: the document request that makes it
	// fills it before releasing the shard lock and never writes it again, and
	// the next document installs a map of its own.
	sh := s.shardOf(string(from))
	sh.mu.RLock()
	sess, ok := sh.sessions[string(from)]
	var mgr *qos.Manager
	var ssrcToID map[uint32]string
	if ok {
		mgr, ssrcToID = sess.qosMgr, sess.ssrcToID
	}
	sh.mu.RUnlock()
	if !ok || s.opts.DisableGrading {
		return
	}
	// The compound's packets and an RR's blocks decode into stack storage
	// that fits a lesson's streams.
	var partsBuf [4][]byte
	parts, err := rtp.SplitCompound(partsBuf[:0], m.RTCP)
	if err != nil {
		return
	}
	var blocks [8]rtp.ReceptionReport
	rr := rtp.ReceiverReport{Reports: blocks[:0]}
	var acted []string
	for _, part := range parts {
		if rr.Unmarshal(part) != nil {
			continue
		}
		for _, block := range rr.Reports {
			id, ok := ssrcToID[block.SSRC]
			if !ok {
				continue
			}
			if acts := mgr.Feedback(qos.FromRTCP(id, block, s.clk.Now())); len(acts) > 0 {
				// Grading changed the stream mix's rate: mark the session
				// for the next renegotiation tick so freed bandwidth
				// returns to the admission pool ([KRI 94]-style service
				// renegotiation) without an admission-pool round-trip per
				// RTCP packet.
				s.queueRenegotiate(sess)
				for _, act := range acts {
					acted = append(acted, act.StreamID)
				}
			}
		}
	}
	if len(acted) == 0 {
		return
	}
	// Per-flow vs per-session level reconciliation: any grading action moves
	// the acted stream's session level away from a shared flow's fixed encode
	// level (upgrades back toward it only happen on already-private flows), so
	// the subscriber splits onto a private flow — the other subscribers never
	// notice. A stream that is already private is left as it is.
	sh.mu.RLock()
	var diverged []*sender
	if cur, live := sh.sessions[string(from)]; live && cur == sess {
		for _, id := range acted {
			if snd := sess.sender(id); snd != nil && !snd.grade.LevelMatches(0) {
				diverged = append(diverged, snd)
			}
		}
	}
	sh.mu.RUnlock()
	for _, snd := range diverged {
		snd.split()
	}
}

func (s *Server) onMediaOp(from netsim.Addr, mt protocol.MsgType, m protocol.MediaOp) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		return
	}
	// The table refuses a delayed resume toward a suspended session: its
	// media is parked behind the grace machinery, and only the resume-token
	// and ResumeSession paths may wake it.
	switch mt {
	case protocol.MsgPause:
		if s.step(sess, protocol.InPause) {
			for _, snd := range sess.senders {
				snd.pause()
			}
		}
	case protocol.MsgResume:
		if s.step(sess, protocol.InResume) {
			for _, snd := range sess.senders {
				snd.resume()
			}
		}
	case protocol.MsgDisableMedia:
		if snd := sess.sender(m.StreamID); snd != nil && !sess.suspended() {
			snd.disable()
		}
	}
}

// suspendSessionLocked pauses the session's media and parks it behind a
// fresh resume token and grace timer. Caller holds sh.mu (the shard owning
// the session). Used both for the paper's voluntary suspend and for
// liveness auto-suspension.
func (s *Server) suspendSessionLocked(sh *ctrlShard, sess *session) string {
	for _, snd := range sess.senders {
		snd.park()
	}
	if sess.resumeToken != "" {
		delete(sh.byToken, sess.resumeToken)
	}
	sess.resumeToken = fmt.Sprintf("%s-tok-%d", s.Name, s.nextID.Add(1))
	sh.byToken[sess.resumeToken] = sess
	tok := sess.resumeToken
	sess.liveTimer.Stop()
	sess.liveTimer = nil
	// "The suspended connection remains active for a period of time ...
	// when this interval is passed the connection closes and the attached
	// client is informed about the event."
	sess.graceTimer.Stop()
	sess.graceTimer = s.clk.AfterFunc(s.opts.Grace, func() { s.expireSuspended(tok) })
	return tok
}

func (s *Server) onSuspend(from netsim.Addr, reqID uint32) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgSuspendResult, &protocol.SuspendResult{OK: false})
		return
	}
	// A link to another server: from browsing, the remote document is
	// requested first. A refused second suspend still gets a fresh token.
	if sess.state.State() == protocol.StBrowsing {
		s.step(sess, protocol.InRequestDoc)
	}
	s.step(sess, protocol.InRedirect)
	tok := s.suspendSessionLocked(sh, sess)
	grace := s.opts.Grace
	sh.mu.Unlock()
	s.replyReq(from, reqID, protocol.MsgSuspendResult, &protocol.SuspendResult{
		OK: true, ResumeToken: tok, GraceSecs: int(grace.Seconds()),
	})
}

func (s *Server) expireSuspended(token string) {
	// The token lives on the shard of the session's current address; scan
	// for it (grace expiries are rare).
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sess, ok := sh.byToken[token]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		if !s.step(sess, protocol.InGraceExpired) {
			sh.mu.Unlock()
			return
		}
		client := sess.client
		s.teardownSessionLocked(sh, sess, "grace period expired")
		sh.mu.Unlock()
		s.reply(client, protocol.MsgError, &protocol.ErrorMsg{Msg: "suspended connection closed: grace period expired"})
		return
	}
}

func (s *Server) onDisconnect(from netsim.Addr) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		return
	}
	s.step(sess, protocol.InDisconnect)
	s.teardownSessionLocked(sh, sess, "client disconnect")
	sh.mu.Unlock()
}

// teardownSessionLocked removes a session from its shard's maps, stops its
// timers and its media, releases its reservation and settles billing. Caller
// holds sh.mu (the shard owning the session).
func (s *Server) teardownSessionLocked(sh *ctrlShard, sess *session, note string) {
	addr := string(sess.client)
	if cur, ok := sh.sessions[addr]; ok && cur == sess {
		delete(sh.sessions, addr)
		s.sessionCount.Add(-1)
	}
	delete(sh.byID, sess.id)
	if sess.resumeToken != "" {
		delete(sh.byToken, sess.resumeToken)
		sess.resumeToken = ""
	}
	sess.graceTimer.Stop()
	sess.graceTimer = nil
	sess.liveTimer.Stop()
	sess.liveTimer = nil
	sh.dropRingLocked(addr)
	s.stopSendersLocked(sess)
	s.adm.Release(sess.connID)
	s.opts.Obs.Gauge("server_sessions").Set(s.sessionCount.Load())
	s.opts.Obs.Emit(obs.EvSessionEnd, sess.user, int64(sess.connID), note)
	s.users.ChargeSession(sess.user, s.clk.Now().Sub(sess.startedAt), s.clk.Now())
	s.users.LogLogout(sess.user, s.clk.Now())
}

func (s *Server) stopSendersLocked(sess *session) {
	for _, snd := range sess.senders {
		snd.stop()
	}
	sess.senders = nil
	if sess.srTimer != nil {
		sess.srTimer.Stop()
		sess.srTimer = nil
	}
}
