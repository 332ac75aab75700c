package client

import (
	"errors"
	"slices"
	"time"

	"repro/internal/buffer"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
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
		// A type the client is never sent must not resolve the request
		// whose ID it echoes: it is dropped like an undecodable reply.
		c.accept(from, mt, reqID, errUnexpectedReply)
	}
}

var errUnexpectedReply = errors.New("not a reply the client handles")

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
			c.peers = m.Peers // decoded for this message alone, and only read
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
			if p := c.pres; recovered && m.Resumed && p != nil && !p.player.Finished() && p.doc.Host == from {
				// Resumed in place within the grace window: straight back
				// to viewing, the frozen presentation continues.
				rec.m.Try(protocol.InRecover)
				if p.userPaused {
					// The user paused before the outage: recover into the
					// paused presentation. The server kept the sender
					// user-paused across the suspend, so nothing resumes
					// until the user asks.
					rec.m.Try(protocol.InPause)
				} else {
					p.player.Resume()
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
		c.peers = m.Peers
	}
	if c.move.from != "" && from != c.move.from {
		lat := c.clk.Now().Sub(c.move.start)
		c.hHandoff.Observe(lat)
		c.opts.Obs.Counter("client_handoffs_completed").Inc()
		c.opts.Obs.Emit(obs.EvHandoff, from, lat.Microseconds(), "handoff complete: "+m.Name)
		c.logEvent("handoff complete → " + from)
		c.move = moveEpisode{}
	}
	// A reply carrying the text already on screen (a reload, handoff or
	// failover) keeps the parsed scenario and its schedule: playout only
	// reads them.
	old := c.pres
	var sc *scenario.Scenario
	var sch *scenario.Schedule
	if old != nil && old.sc.Src == m.ScenarioSrc {
		sc, sch = old.sc, old.sch
	} else {
		var err error
		if sc, err = scenario.Parse(m.ScenarioSrc); err != nil {
			mach.Try(protocol.InDocFail)
			c.lastError = err.Error()
			return
		}
		sch = scenario.BuildSchedule(sc)
	}
	old.close(c.net)
	mach.Try(protocol.InDocReady)
	// Maintain the back/forward stacks around the document switch.
	var prev navEntry
	var carried receive
	if old != nil {
		prev, carried = old.doc, old.receive
	}
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
	name := m.Name
	if name == "" {
		name = sc.Title
	}
	sc.Name = name
	c.history = append(c.history, name)
	p := &presentation{receive: carried, sc: sc, sch: sch, bufs: buffer.NewSet(), display: playout.NewDisplay(),
		doc: navEntry{Host: from, Name: name}, docAt: c.clk.Now(), streams: m.Streams}
	c.pres = p
	if p.monitor == nil {
		p.monitor = qos.NewClientMonitor(c.clk, 0x1996)
	}

	// One buffer handler and one stream handler (port listener, bound to
	// its stream's record) per parallel media connection.
	for _, ann := range m.Streams {
		interval := time.Duration(ann.FrameIntervalUS) * time.Microsecond
		window := c.opts.Window
		if window <= 0 {
			window = buffer.ComputeWindow(interval, c.opts.JitterBudget, c.opts.WindowSafety)
		}
		p.bufs.Create(buffer.Config{
			StreamID:      ann.StreamID,
			FrameInterval: interval,
			Window:        window,
			Obs:           c.opts.Obs,
		})
		p.monitor.Track(ann.StreamID, ann.SSRC)
		rec := p.stream(nil, ann.SSRC)
		if rec == nil {
			rec = &rxStream{ssrc: ann.SSRC}
			p.rx = append(p.rx, rec)
		}
		rec.id = ann.StreamID
		addr := netsim.MakeAddr(c.Host, ann.Port)
		p.ports = append(p.ports, addr)
		if err := c.net.Listen(addr, func(pkt netsim.Packet) { c.handleMedia(rec, pkt) }); err != nil {
			// The stream's media port could not be bound: its frames will
			// never arrive, but the rest of the presentation proceeds.
			c.lastError = err.Error()
			c.logEvent("media listen failed: " + err.Error())
		}
	}
	// Every record, this document's or an earlier one's, follows its ID:
	// the receiver tracked for it now and this document's buffer, if any.
	for _, rec := range p.rx {
		rec.recv = p.monitor.Receiver(rec.id)
		rec.buf = p.bufs.Get(rec.id)
	}

	opts := c.opts.Playout
	opts.OnLink = c.onTimedLink
	if opts.Obs == nil {
		opts.Obs = c.opts.Obs
	}
	p.player = playout.New(c.clk, sc, sch, p.bufs, p.display, opts)
	c.logEvent("document ready: " + name)

	// The deliberate initial delay waits only on the buffers that gate the
	// start of the presentation: time-sensitive streams playing from (or
	// near) time zero. Stills retry on lateness, and streams starting
	// later are pre-rolled by the flow scheduler on their own schedule.
	for _, st := range sc.TimedStreams() {
		if st.Start > time.Second {
			continue
		}
		if st.Type.TimeSensitive() {
			p.fillIDs = append(p.fillIDs, st.ID)
		} else {
			p.stillIDs = append(p.stillIDs, st.ID)
		}
	}
	c.pollFillLocked(p)
}

// pollFillLocked is the deliberate initial delay: it starts p once every
// gating buffer holds its media time window, or when the cap expires, and
// polls again in 50 ms until then, re-arming the presentation's one fill
// timer. Caller holds c.mu.
func (c *Client) pollFillLocked(p *presentation) {
	if p.started || c.pres != p || p.closed {
		return
	}
	filled := true
	for _, id := range p.fillIDs {
		if b := p.bufs.Get(id); b != nil && !b.Filled() {
			filled = false
			break
		}
	}
	// Stills due at the start must have arrived (one frame suffices).
	for _, id := range p.stillIDs {
		if b := p.bufs.Get(id); b != nil && b.Len() == 0 {
			filled = false
			break
		}
	}
	if filled && len(p.fillIDs) == 0 && len(p.stillIDs) == 0 {
		// No gating stream: wait a token 200ms.
		filled = c.clk.Since(p.docAt) >= 200*time.Millisecond
	}
	if filled || !c.clk.Now().Before(p.docAt.Add(c.opts.MaxInitialDelay)) {
		p.started = true
		p.startDelay = c.clk.Now().Sub(p.docAt)
		p.player.Start()
		c.logEvent("presentation started")
		// Natural end of the presentation (when no timed link ends it
		// first): scenario length plus a small slack.
		p.endTimer = c.clk.AfterFunc(p.sc.Length()+500*time.Millisecond, func() { c.onPresentationEnd(p) })
		p.fbTimer = c.clk.AfterFunc(c.opts.FeedbackInterval, func() { c.sendFeedback(p) })
		return
	}
	if p.fillTimer == nil {
		p.fillTimer = c.clk.AfterFunc(50*time.Millisecond, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.pollFillLocked(p)
		})
		return
	}
	p.fillTimer.Reset(50 * time.Millisecond)
}

// handleMedia is the stream handler of the port bound to rec: it parses
// RTP, finds the packet's stream by its SSRC (rec's, unless the packet
// names another), updates the stream's reception state, reassembles
// fragments and pushes complete frames into the stream's buffer.
//
// Per the netsim.Net ownership rule, pkt.Payload is borrowed for the
// duration of the call only — the simulator recycles the buffer afterwards.
// The RTP packet, parsed into a stack value, and ParseFrameHeader's result
// are zero-copy views into it; an OnFrame observer's fragment data is copied
// into pooled scratch before return, and nothing retains pkt.Payload.
func (c *Client) handleMedia(rec *rxStream, pkt netsim.Packet) {
	// RTP/RTCP demultiplexing: RTCP packet types occupy 200–204 in the
	// second octet, a range RTP payload types never reach. The server's
	// sender reports have no reader here, so they are dropped unread.
	if len(pkt.Payload) >= 2 && pkt.Payload[1] >= 200 && pkt.Payload[1] <= 204 {
		return
	}
	var p rtp.Packet
	if p.Unmarshal(pkt.Payload) != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec = c.pres.stream(rec, p.SSRC); rec == nil {
		return
	}
	now := c.clk.Now()
	rec.recv.Observe(&p, now, pkt.SentAt)
	hdr, data, err := media.ParseFrameHeader(p.Payload)
	if err != nil {
		return
	}
	// The frame in progress is most likely the newest.
	var a *assembly
	for i := len(rec.asm) - 1; i >= 0; i-- {
		if rec.asm[i].hdr.Index == hdr.Index {
			a = rec.asm[i]
			break
		}
	}
	if a == nil {
		a = c.pres.newAssembly(hdr, p.Timestamp, c.opts.OnFrame != nil)
		rec.asm = append(rec.asm, a)
	}
	if !pkt.SentAt.IsZero() && (a.sentAt.IsZero() || pkt.SentAt.Before(a.sentAt)) {
		a.sentAt = pkt.SentAt
	}
	// Count the fragment, copying it into an observer's frame scratch. The
	// first-seen header is authoritative: fragments whose length disagrees
	// with the frame's fragmentation geometry (corruption, a mismatched
	// retransmit) are dropped, and duplicate deliveries must not double-count.
	if int(hdr.Frag) < len(a.got) && !a.got[hdr.Frag] {
		off, n := media.FragmentSpan(int(a.hdr.FrameSize), int(hdr.Frag))
		if n == len(data) {
			if a.pb != nil {
				copy(a.pb.B[off:off+n], data)
			}
			a.got[hdr.Frag] = true
			a.have++
		}
	}
	if a.have < a.total {
		return
	}
	// Take the frame out, and recycle the assemblies more than 50 frames
	// behind it (lost fragments never complete) or ahead of it (junk
	// indexes never do): bound the state either way.
	rec.asm = slices.DeleteFunc(rec.asm, func(x *assembly) bool {
		if x != a && (x.hdr.Index+50 < hdr.Index || x.hdr.Index > hdr.Index+50) {
			c.pres.freeAssembly(x)
			return true
		}
		return x == a
	})
	if c.spans.Sampled(hdr.Index) && !a.sentAt.IsZero() {
		c.spans.RecordDelivery(rec.id, now.Sub(a.sentAt))
	}
	if rec.buf != nil {
		rec.buf.Push(buffer.Item{
			Frame: media.Frame{
				Index:  int(a.hdr.Index),
				PTS:    rtp.FromTimestamp(a.ts),
				Kind:   a.hdr.Kind,
				Size:   int(a.hdr.FrameSize),
				Marker: true,
				Level:  int(a.hdr.Level),
			},
			ArrivedAt: now,
		})
	}
	if c.opts.OnFrame != nil {
		c.opts.OnFrame(rec.id, a.hdr, a.pb.B)
	}
	c.pres.freeAssembly(a)
}

// sendFeedback is p's feedback timer: it ships the periodic RTCP receiver
// report to the server, marshaled into the reused p.rr, and re-arms.
func (c *Client) sendFeedback(p *presentation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres != p || p.closed || p.player.Finished() || c.current == "" {
		return
	}
	p.rr = p.monitor.BuildRR().AppendTo(p.rr[:0])
	p.fbTimer.Reset(c.opts.FeedbackInterval)
	c.send(c.server(c.current), protocol.MsgFeedback, &protocol.Feedback{RTCP: p.rr})
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

// onPresentationEnd is p's end timer: the natural completion of its
// scenario.
func (c *Client) onPresentationEnd(p *presentation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pres != p || p.closed || p.player.Finished() {
		return
	}
	// Pauses freeze presentation time: if it has not actually reached the
	// scenario length yet, re-arm for the remainder.
	if remaining := p.sc.Length() + 500*time.Millisecond - p.player.Now(); remaining > 50*time.Millisecond {
		p.endTimer.Reset(remaining)
		return
	}
	if c.server(c.current).m.Try(protocol.InPresentationEnd) {
		p.player.Finish()
		c.logEvent("presentation ended")
	}
	// The fill and end timers have fired; the media ports stay open until
	// the next document or a disconnect closes p.
	p.fbTimer.Stop()
}
