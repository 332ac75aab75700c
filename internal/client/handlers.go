package client

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

// handleCtrl dispatches control-channel packets from servers. Each body is
// decoded before accept decides whether it is handled.
func (c *Client) handleCtrl(pkt netsim.Packet) {
	from := pkt.From.Host()
	mt, reqID, body, err := protocol.DecodeReq(pkt.Payload)
	if err != nil {
		c.accept(from, mt, 0, err)
		return
	}
	switch mt {
	case protocol.MsgConnectResult:
		var m protocol.ConnectResult
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.onConnectResult(from, m)
		}
	case protocol.MsgSubscribeResult:
		var m protocol.SubscribeResult
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.onSubscribeResult(from, m)
		}
	case protocol.MsgTopics:
		var m protocol.Topics
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.mu.Lock()
			c.topics = m.Topics
			c.mu.Unlock()
		}
	case protocol.MsgSearchResult:
		var m protocol.SearchResult
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.mu.Lock()
			c.searchHits = m.Hits
			c.searchDone = true
			c.mu.Unlock()
		}
	case protocol.MsgDocResponse:
		var m protocol.DocResponse
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.onDocResponse(from, m)
		}
	case protocol.MsgAnnotations:
		var m protocol.Annotations
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.mu.Lock()
			c.annotations = &m
			c.mu.Unlock()
		}
	case protocol.MsgSuspendResult:
		var m protocol.SuspendResult
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.onSuspendResult(from, m)
		}
	case protocol.MsgStatsResult:
		var m protocol.StatsResult
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.mu.Lock()
			c.lastStats = &m
			c.mu.Unlock()
		}
	case protocol.MsgHeartbeatAck:
		var m protocol.HeartbeatAck
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.onHeartbeatAck(from, m)
		}
	case protocol.MsgError:
		var m protocol.ErrorMsg
		if c.accept(from, mt, reqID, protocol.DecodeBody(body, &m)) {
			c.mu.Lock()
			c.lastError = m.Msg
			if rec := c.server(from); rec.m.Try(protocol.InGraceExpired) {
				rec.token = ""
			}
			c.logEvent("server error: " + m.Msg)
			c.mu.Unlock()
		}
	default:
		c.accept(from, mt, reqID, nil)
	}
}

// accept reports whether a reply is handled. A body that failed to decode
// is counted and otherwise treated as lost, so the request it answers keeps
// retransmitting and times out through its onFail. Replies to tracked
// requests echo the request ID: the first one resolves the pending
// retransmission entry, duplicates (from retransmitted requests the server
// deduplicated) are dropped here so they cannot double-apply.
func (c *Client) accept(from string, mt protocol.MsgType, reqID uint32, decodeErr error) bool {
	if decodeErr != nil {
		c.opts.Obs.Counter("client_ctrl_decode_errors").Inc()
		c.opts.Obs.Emit(obs.EvCtrlDecodeError, from, int64(reqID), mt.String()+": "+decodeErr.Error())
		return false
	}
	if reqID == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completePendingLocked(reqID)
}

func (c *Client) onConnectResult(from string, m protocol.ConnectResult) {
	c.mu.Lock()
	c.lastConnect = &m
	rec := c.server(from)
	if m.OK {
		rec.session = m.SessionID
		// The server advertises its suspend grace window and replica set on
		// every successful connect: they bound recovery probing and name the
		// failover candidates.
		if m.GraceSecs > 0 {
			c.graceSecs = m.GraceSecs
		}
		if len(m.Peers) > 0 {
			c.peers = append([]string(nil), m.Peers...)
		}
		// A server is serving us again: any move or redirect is past its
		// connect. Servers that failed or refused us during it become
		// eligible again for later, unrelated episodes — failedPeers must
		// not be sticky across episodes, or a once-failed replica is
		// shunned forever.
		clear(c.failedPeers)
		recovered := c.recovering == from
		if recovered {
			c.recovering = ""
		}
		doc := c.move.doc
		c.move.doc = ""
		if !c.move.timed {
			c.move = moveEpisode{} // only a handoff runs on to its document response
		}
		rec.m.Try(protocol.InAuthOK) // a new session: connecting → browsing
		if rec.m.State() == protocol.StSuspended {
			if recovered && m.Resumed && c.player != nil && !c.player.Finished() && c.docHost == from {
				// Resumed in place within the grace window: straight back
				// to viewing, the frozen presentation continues.
				rec.m.Try(protocol.InRecover)
				if c.userPaused {
					// The user paused before the outage: recover into the
					// paused presentation. The server kept the sender
					// user-paused across the suspend, so nothing resumes
					// until the user asks.
					rec.m.Try(protocol.InPause)
				} else {
					c.player.Resume()
				}
			} else {
				rec.m.Try(protocol.InReturn)
			}
			rec.token = ""
		}
		if recovered {
			c.opts.Obs.Counter("client_sessions_resumed").Inc()
			c.opts.Obs.Emit(obs.EvSessionResume, from, 0, "session "+m.SessionID+" recovered")
			c.logEvent("session recovered: " + from)
		} else {
			c.logEvent("connected to " + from)
			c.opts.Obs.Emit(obs.EvSessionStart, from, 0, "session "+m.SessionID)
		}
		if from == c.current {
			c.startHeartbeatLocked()
		}
		if doc != "" {
			c.requestDocLocked(doc)
		}
	} else if m.NeedSubscription {
		rec.m.Try(protocol.InAuthNeedSubscribe)
		c.logEvent("subscription required at " + from)
	} else if m.Redirect {
		// Load-aware admission redirect: retry at a less-loaded peer.
		c.onRedirectLocked(from, m)
	} else if m.SessionLost && c.recovering == from {
		// The server came back but restarted without our session: the
		// grace window cannot help, fail over now.
		c.lastError = m.Reason
		c.logEvent("session lost at " + from)
		c.failoverLocked(from)
	} else if c.move.from != "" && !c.move.fresh && from != c.move.from {
		// The move's target answered but refused (bad ticket, admission
		// reject): treat like an unreachable target and fall back. A
		// redirect's target answers for itself, below.
		c.lastError = m.Reason
		c.logEvent(c.move.verb + " refused by " + from + ": " + m.Reason)
		c.handoffConnectFailedLocked(from)
	} else {
		rec.m.Try(protocol.InAuthReject)
		c.lastError = m.Reason
		c.logEvent("connection rejected: " + m.Reason)
	}
	c.mu.Unlock()
}

func (c *Client) onSubscribeResult(from string, m protocol.SubscribeResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSubscribe = &m
	mach := &c.server(from).m
	if m.OK {
		mach.Try(protocol.InSubscribed)
		c.logEvent("subscribed at " + from)
		// The connection attempt that triggered the subscription never
		// created a server-side session; re-handshake transparently so
		// admission runs with the now-known user.
		c.connectLocked(from)
	} else {
		mach.Try(protocol.InSubscribeFail)
		c.lastError = m.Reason
	}
}

// onSuspendResult stores the resume token of a link's move and connects to
// its target.
func (c *Client) onSuspendResult(from string, m protocol.SuspendResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.OK {
		c.server(from).token = m.ResumeToken
	}
	if from == c.move.from && from == c.current {
		c.connectLocked(c.move.to)
	}
}

// onDocResponse is the heart of the browser: it preprocesses the received
// presentation scenario, creates the per-stream buffers and stream
// handlers, inserts the deliberate initial delay, and starts the
// presentation scheduler.
func (c *Client) onDocResponse(from string, m protocol.DocResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mach := &c.server(from).m
	if !m.OK {
		if m.Redirect != "" {
			// The document is homed on another server: the source suspended
			// our session and hands us off there.
			c.onDocHandoffLocked(from, m)
			return
		}
		mach.Try(protocol.InDocFail)
		c.lastError = m.Reason
		c.logEvent("document failed: " + m.Reason)
		if c.move.from != "" && from != c.move.from {
			// The move's target could not serve the document after all.
			c.move = moveEpisode{}
		}
		return
	}
	if len(m.Peers) > 0 {
		// Per-document replica set: failover while viewing this document
		// must land on a server that holds it.
		c.peers = append([]string(nil), m.Peers...)
	}
	if c.move.from != "" && from != c.move.from {
		lat := c.clk.Now().Sub(c.move.start)
		c.hHandoff.Observe(lat)
		c.opts.Obs.Counter("client_handoffs_completed").Inc()
		c.opts.Obs.Emit(obs.EvHandoff, from, lat.Microseconds(), "handoff complete: "+m.Name)
		c.logEvent("handoff complete → " + from)
		c.move = moveEpisode{}
	}
	sc, err := scenario.Parse(m.ScenarioSrc)
	if err != nil {
		mach.Try(protocol.InDocFail)
		c.lastError = err.Error()
		return
	}
	c.teardownPresentationLocked()
	mach.Try(protocol.InDocReady)
	c.sc = sc
	c.sch = scenario.BuildSchedule(sc)
	// Maintain the back/forward stacks around the document switch.
	prev := navEntry{Host: c.docHost, Name: c.docName}
	switch c.navDirection {
	case -1: // back
		if prev.Name != "" {
			c.fwdStack = append(c.fwdStack, prev)
		}
	case 1: // forward
		if prev.Name != "" {
			c.backStack = append(c.backStack, prev)
		}
	case 2: // reload: stacks untouched
	default: // new navigation
		if prev.Name != "" {
			c.backStack = append(c.backStack, prev)
		}
		c.fwdStack = nil
	}
	c.navDirection = 0
	c.docName = m.Name
	if c.docName == "" {
		c.docName = sc.Title
	}
	c.docHost = from
	sc.Name = c.docName
	c.docAt = c.clk.Now()
	c.history = append(c.history, c.docName)
	c.bufs = buffer.NewSet()
	c.display = playout.NewDisplay()
	c.streamInfo = map[string]protocol.StreamAnnounce{}
	c.asm = map[uint32]map[uint32]*assembly{}
	c.started = false
	c.startDelay = 0

	// One buffer handler and one stream handler (port listener) per
	// parallel media connection.
	for _, ann := range m.Streams {
		ann := ann
		interval := time.Duration(ann.FrameIntervalUS) * time.Microsecond
		window := c.opts.Window
		if window <= 0 {
			window = buffer.ComputeWindow(interval, c.opts.JitterBudget, c.opts.WindowSafety)
		}
		c.bufs.Create(buffer.Config{
			StreamID:      ann.StreamID,
			FrameInterval: interval,
			Window:        window,
			Obs:           c.opts.Obs,
		})
		c.streamInfo[ann.StreamID] = ann
		c.monitor.Track(ann.StreamID, ann.SSRC)
		addr := netsim.MakeAddr(c.Host, ann.Port)
		c.mediaPorts = append(c.mediaPorts, addr)
		if err := c.net.Listen(addr, c.handleMedia); err != nil {
			// The stream's media port could not be bound: its frames will
			// never arrive, but the rest of the presentation proceeds.
			c.lastError = err.Error()
			c.logEvent("media listen failed: " + err.Error())
		}
	}

	opts := c.opts.Playout
	opts.OnLink = c.onTimedLink
	if opts.Obs == nil {
		opts.Obs = c.opts.Obs
	}
	c.player = playout.New(c.clk, sc, c.sch, c.bufs, c.display, opts)
	c.logEvent("document ready: " + c.docName)

	// The deliberate initial delay waits only on the buffers that gate the
	// start of the presentation: time-sensitive streams playing from (or
	// near) time zero. Stills retry on lateness, and streams starting
	// later are pre-rolled by the flow scheduler on their own schedule.
	c.fillIDs = nil
	c.stillIDs = nil
	for _, st := range sc.TimedStreams() {
		if st.Start > time.Second {
			continue
		}
		if st.Type.TimeSensitive() {
			c.fillIDs = append(c.fillIDs, st.ID)
		} else {
			c.stillIDs = append(c.stillIDs, st.ID)
		}
	}

	// The deliberate initial delay: start once every buffer holds its
	// media time window, or when the cap expires.
	deadline := c.clk.Now().Add(c.opts.MaxInitialDelay)
	c.pollFillLocked(deadline)
}

func (c *Client) pollFillLocked(deadline time.Time) {
	if c.started || c.player == nil {
		return
	}
	filled := true
	for _, id := range c.fillIDs {
		if b := c.bufs.Get(id); b != nil && !b.Filled() {
			filled = false
			break
		}
	}
	// Stills due at the start must have arrived (one frame suffices).
	for _, id := range c.stillIDs {
		if b := c.bufs.Get(id); b != nil && b.Len() == 0 {
			filled = false
			break
		}
	}
	if filled && len(c.fillIDs) == 0 && len(c.stillIDs) == 0 {
		// No gating stream: wait a token 200ms.
		filled = c.clk.Since(c.docAt) >= 200*time.Millisecond
	}
	if filled || !c.clk.Now().Before(deadline) {
		c.started = true
		c.startDelay = c.clk.Now().Sub(c.docAt)
		c.player.Start()
		c.logEvent("presentation started")
		// Natural end of the presentation (when no timed link ends it
		// first): scenario length plus a small slack.
		length := c.sc.Length()
		c.endTimer = c.clk.AfterFunc(length+500*time.Millisecond, c.onPresentationEnd)
		c.fbTimer = c.clk.AfterFunc(c.opts.FeedbackInterval, c.sendFeedback)
		return
	}
	c.fillTimer = c.clk.AfterFunc(50*time.Millisecond, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.pollFillLocked(deadline)
	})
}

// handleMedia is the stream handler: it parses RTP, updates the QoS
// monitor, reassembles fragments and pushes complete frames into the
// stream's buffer.
//
// Per the netsim.Net ownership rule, pkt.Payload is borrowed for the
// duration of the call only — the simulator recycles the buffer afterwards.
// The RTP packet, parsed into a stack value, and ParseFrameHeader's result
// are zero-copy views into it, so the fragment data is copied into the
// assembly's pooled scratch before return and nothing retains pkt.Payload.
func (c *Client) handleMedia(pkt netsim.Packet) {
	// RTP/RTCP demultiplexing: RTCP packet types occupy 200–204 in the
	// second octet, a range RTP payload types never reach.
	if len(pkt.Payload) >= 2 && pkt.Payload[1] >= 200 && pkt.Payload[1] <= 204 {
		if cp, err := rtp.UnmarshalControl(pkt.Payload); err == nil && cp.SR != nil {
			if id, ok := c.monitor.StreamID(cp.SR.SSRC); ok {
				c.monitor.ObserveSR(id, cp.SR)
			}
		}
		return
	}
	var p rtp.Packet
	if p.Unmarshal(pkt.Payload) != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.monitor.StreamID(p.SSRC)
	if !ok {
		return
	}
	c.monitor.Observe(id, &p, c.clk.Now(), pkt.SentAt)
	hdr, data, err := media.ParseFrameHeader(p.Payload)
	if err != nil {
		return
	}
	byFrame, ok := c.asm[p.SSRC]
	if !ok {
		byFrame = map[uint32]*assembly{}
		c.asm[p.SSRC] = byFrame
	}
	a, ok := byFrame[hdr.Index]
	if !ok {
		a = c.newAssemblyLocked(hdr, p.Timestamp)
		byFrame[hdr.Index] = a
	}
	if !pkt.SentAt.IsZero() && (a.sentAt.IsZero() || pkt.SentAt.Before(a.sentAt)) {
		a.sentAt = pkt.SentAt
	}
	// Copy the fragment into its slot of the frame scratch. The first-seen
	// header is authoritative: fragments whose length disagrees with the
	// frame's fragmentation geometry (corruption, a mismatched retransmit)
	// are dropped, and duplicate deliveries must not double-count.
	if int(hdr.Frag) < len(a.got) && !a.got[hdr.Frag] {
		off, n := media.FragmentSpan(int(a.hdr.FrameSize), int(hdr.Frag))
		if n == len(data) {
			copy(a.pb.B[off:off+n], data)
			a.got[hdr.Frag] = true
			a.have++
		}
	}
	if a.have < a.total {
		return
	}
	delete(byFrame, hdr.Index)
	// Drop stale assemblies far behind this frame (lost fragments never
	// complete; bound the state) and recycle their scratch.
	for idx, stale := range byFrame {
		if idx+50 < hdr.Index {
			delete(byFrame, idx)
			c.freeAssemblyLocked(stale)
		}
	}
	if c.spans.Sampled(hdr.Index) && !a.sentAt.IsZero() {
		c.spans.RecordDelivery(id, c.clk.Now().Sub(a.sentAt))
	}
	if buf := c.bufs.Get(id); buf != nil {
		buf.Push(buffer.Item{
			Frame: media.Frame{
				Index:  int(a.hdr.Index),
				PTS:    rtp.FromTimestamp(a.ts),
				Kind:   a.hdr.Kind,
				Size:   int(a.hdr.FrameSize),
				Marker: true,
				Level:  int(a.hdr.Level),
			},
			ArrivedAt: c.clk.Now(),
		})
	}
	if c.opts.OnFrame != nil {
		c.opts.OnFrame(id, a.hdr, a.pb.B)
	}
	c.freeAssemblyLocked(a)
}

// sendFeedback ships the periodic RTCP receiver report to the server.
func (c *Client) sendFeedback() {
	c.mu.Lock()
	if c.player == nil || c.player.Finished() || c.current == "" {
		c.mu.Unlock()
		return
	}
	rr := c.monitor.BuildRR()
	host := c.current
	c.fbTimer = c.clk.AfterFunc(c.opts.FeedbackInterval, c.sendFeedback)
	c.mu.Unlock()
	c.send(host, protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.Marshal()})
}

// onTimedLink fires when the presentation scenario auto-follows a link.
func (c *Client) onTimedLink(link scenario.Link) {
	c.mu.Lock()
	if !c.opts.AutoFollowLinks {
		c.mu.Unlock()
		return
	}
	c.logEvent("timed link → " + link.Target)
	c.followLinkLocked(link)
	c.mu.Unlock()
}

// onPresentationEnd handles the natural completion of a scenario.
func (c *Client) onPresentationEnd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.player == nil || c.player.Finished() {
		return
	}
	// Pauses freeze presentation time: if it has not actually reached the
	// scenario length yet, re-arm for the remainder.
	if remaining := c.sc.Length() + 500*time.Millisecond - c.player.Now(); remaining > 50*time.Millisecond {
		c.endTimer = c.clk.AfterFunc(remaining, c.onPresentationEnd)
		return
	}
	if c.server(c.current).m.Try(protocol.InPresentationEnd) {
		c.player.Finish()
		c.logEvent("presentation ended")
	}
	c.stopTimersLocked()
}

// teardownPresentationLocked releases the media ports, timers and player of
// the current presentation (keeping display/report for inspection).
func (c *Client) teardownPresentationLocked() {
	if c.player != nil {
		c.player.Finish()
	}
	c.userPaused = false
	c.stopTimersLocked()
	for _, addr := range c.mediaPorts {
		c.net.Listen(addr, nil)
	}
	c.mediaPorts = nil
	for _, byFrame := range c.asm {
		for _, a := range byFrame {
			c.freeAssemblyLocked(a)
		}
	}
	c.asm = nil
}

func (c *Client) stopTimersLocked() {
	if c.fillTimer != nil {
		c.fillTimer.Stop()
		c.fillTimer = nil
	}
	if c.endTimer != nil {
		c.endTimer.Stop()
		c.endTimer = nil
	}
	if c.fbTimer != nil {
		c.fbTimer.Stop()
		c.fbTimer = nil
	}
}
