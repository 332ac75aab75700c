package client

// The reliable control plane: every request that expects a reply carries a
// request ID and is retransmitted with capped exponential backoff until the
// echoed reply arrives, a deadline passes, or the attempt budget runs out.
// On top of it sit the session heartbeats: when enough go unanswered the
// client enters the paper's suspend state, pauses the presentation, and
// probes the server with a resume-by-session-ID connect until the grace
// window closes. Failover is a suspend whose peer never answers: past the
// window the client moves to a replica (cluster.go) with no source to return
// to. The probe, like every Connect, is built by connectLocked (client.go).

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// retryBackoffCap bounds the exponential backoff of control retransmissions
// and redirect hops.
const retryBackoffCap = 4 * time.Second

// pendingReq is one in-flight tracked control request.
type pendingReq struct {
	id       uint32
	to       netsim.Addr // the server's control address; to.Host() names it
	mt       protocol.MsgType
	frame    []byte
	attempts int
	delay    time.Duration
	// deadline, when set, bounds retransmission in time instead of
	// attempts (used by recovery probes, which retry until the grace
	// window closes).
	deadline time.Time
	// sentAt stamps the first transmission; the control span measures
	// first-send→reply, so retransmission waits count against the RTT.
	sentAt time.Time
	timer  *clock.Timer
	// onFail runs with c.mu held once the request is abandoned.
	onFail func()
	next   *pendingReq
}

// sendFrame puts one raw control frame on the wire. Send errors are left to
// the retransmission machinery: a refused packet looks exactly like a lost
// one.
func (c *Client) sendFrame(to netsim.Addr, frame []byte) {
	_ = c.net.Send(netsim.Packet{
		From:     c.addr,
		To:       to,
		Payload:  frame,
		Reliable: true,
	})
}

// send puts one fire-and-forget control message on the wire. Send copies
// the payload before it returns, so the frame is encoded into the codec's
// scratch. Caller holds c.mu, or passes the record it read under it.
func (c *Client) send(rec *record, t protocol.MsgType, body protocol.Message) {
	if err := protocol.WriteFrame(t, body, func(frame []byte) { c.sendFrame(rec.addr, frame) }); err != nil {
		panic(err)
	}
}

// sendReqLocked sends a tracked request: it is retransmitted with capped
// backoff until its reply (correlated by request ID) arrives. A zero
// deadline bounds it by Options.RetryAttempts; otherwise it retries until
// the deadline. Caller holds c.mu.
func (c *Client) sendReqLocked(host string, mt protocol.MsgType, body protocol.Message, deadline time.Time, onFail func()) uint32 {
	c.nextReq++
	id := c.nextReq
	frame, err := protocol.NewFrame(mt, id, body)
	if err != nil {
		panic(err)
	}
	pr := &pendingReq{
		id:       id,
		to:       c.server(host).addr,
		mt:       mt,
		frame:    frame,
		delay:    c.opts.RetryTimeout,
		deadline: deadline,
		sentAt:   c.clk.Now(),
		onFail:   onFail,
		next:     c.pending,
	}
	c.pending = pr
	pr.timer = c.clk.AfterFunc(pr.delay, func() { c.retryReq(id) })
	c.sendFrame(pr.to, pr.frame)
	return id
}

// retryReq fires when a tracked request's reply timeout expires: either
// retransmit with doubled (capped) backoff, or abandon it, surfacing a
// client Event plus an obs trace event and running the request's onFail.
func (c *Client) retryReq(id uint32) {
	c.mu.Lock()
	pr := c.pendingLocked(id)
	if pr == nil {
		c.mu.Unlock()
		return
	}
	pr.attempts++
	exhausted := pr.attempts >= c.opts.RetryAttempts
	if !pr.deadline.IsZero() {
		exhausted = !c.clk.Now().Before(pr.deadline)
	}
	if exhausted {
		c.unlinkPendingLocked(pr)
		c.opts.Obs.Counter("client_ctrl_timeouts").Inc()
		c.opts.Obs.Emit(obs.EvCtrlTimeout, pr.to.Host(), int64(pr.attempts),
			fmt.Sprintf("%s abandoned after %d attempts", pr.mt, pr.attempts))
		c.logEvent("request timeout: " + pr.mt.String() + " → " + pr.to.Host())
		if pr.onFail != nil {
			pr.onFail()
		}
		c.mu.Unlock()
		return
	}
	c.opts.Obs.Counter("client_ctrl_retries").Inc()
	c.opts.Obs.Emit(obs.EvCtrlRetry, pr.to.Host(), int64(pr.attempts), "retrying "+pr.mt.String())
	pr.delay *= 2
	if pr.delay > retryBackoffCap {
		pr.delay = retryBackoffCap
	}
	pr.timer.Reset(pr.delay)
	to, frame := pr.to, pr.frame
	c.mu.Unlock()
	c.sendFrame(to, frame)
}

// completePendingLocked resolves a tracked request when its echoed reply
// arrives. It reports false for an unknown ID — a duplicated reply, which
// the caller must ignore so retransmitted requests have no double effects.
func (c *Client) completePendingLocked(reqID uint32) bool {
	pr := c.pendingLocked(reqID)
	if pr == nil {
		c.opts.Obs.Counter("client_ctrl_dup_replies").Inc()
		return false
	}
	pr.timer.Stop()
	c.unlinkPendingLocked(pr)
	rtt := c.clk.Now().Sub(pr.sentAt)
	c.hCtrlRTT.Observe(rtt)
	c.opts.Obs.Sample(obs.EvCtrlSpan, pr.to.Host(), rtt.Microseconds(), pr.mt.String())
	return true
}

// cancelPendingLocked abandons every tracked request toward a host without
// running onFail (used when tearing the connection down deliberately).
func (c *Client) cancelPendingLocked(host string) {
	for pr := c.pending; pr != nil; pr = pr.next {
		if pr.to.Host() == host {
			pr.timer.Stop()
			c.unlinkPendingLocked(pr)
		}
	}
}

// pendingLocked returns the tracked request with ID id, or nil.
func (c *Client) pendingLocked(id uint32) *pendingReq {
	pr := c.pending
	for pr != nil && pr.id != id {
		pr = pr.next
	}
	return pr
}

// unlinkPendingLocked takes pr off the list of tracked requests.
func (c *Client) unlinkPendingLocked(pr *pendingReq) {
	p := &c.pending
	for *p != pr {
		p = &(*p).next
	}
	*p = pr.next
}

// --- heartbeats and liveness ---

// startHeartbeatLocked (re)arms the heartbeat loop toward the current
// server as a new loop: a tick of the old one that lost its Stop race on
// the wall clock does nothing. Caller holds c.mu.
func (c *Client) startHeartbeatLocked() {
	c.hbTimer.Stop()
	c.hbAwait = false
	c.hbMisses = 0
	c.hbLoop++
	loop := c.hbLoop
	c.hbTimer = c.clk.AfterFunc(c.opts.HeartbeatInterval, func() { c.heartbeatTick(loop) })
}

// heartbeatTick counts unanswered beats of loop and sends the next one. The
// loop parks itself whenever there is no live session to probe (and is
// restarted by the next successful connect).
func (c *Client) heartbeatTick(loop uint16) {
	c.mu.Lock()
	if loop != c.hbLoop {
		c.mu.Unlock()
		return
	}
	host := c.current
	rec := c.lookup(host)
	if rec == nil || rec.session == "" || c.recovering != "" {
		c.hbTimer = nil
		c.mu.Unlock()
		return
	}
	switch rec.m.State() {
	case protocol.StIdle, protocol.StConnecting, protocol.StSuspended, protocol.StDisconnected:
		// No live session toward this server right now (e.g. a voluntary
		// suspend in flight): stop probing; a connect result re-arms.
		c.hbTimer = nil
		c.mu.Unlock()
		return
	}
	if c.hbAwait {
		c.hbMisses++
		c.opts.Obs.Counter("client_heartbeat_misses").Inc()
		c.opts.Obs.Emit(obs.EvHeartbeatMiss, host, int64(c.hbMisses), "heartbeat unanswered")
	} else {
		c.hbMisses = 0
	}
	if c.hbMisses >= c.opts.LivenessMisses {
		c.hbTimer = nil
		c.onPeerLostLocked(host, "heartbeats unanswered")
		c.mu.Unlock()
		return
	}
	c.hbAwait = true
	c.hbTimer.Reset(c.opts.HeartbeatInterval)
	c.mu.Unlock()
	c.send(rec, protocol.MsgHeartbeat, &protocol.Heartbeat{SessionID: rec.session})
}

func (c *Client) onHeartbeatAck(from string, m protocol.HeartbeatAck) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if from != c.current || c.recovering != "" {
		return
	}
	if m.OK {
		c.hbAwait = false
		c.hbMisses = 0
		// Every ack refreshes the per-document replica set, so failover
		// targets track the document being viewed and placement changes.
		// The decoded slice is the ack's own, kept only when it differs.
		if len(m.Peers) > 0 && !slices.Equal(m.Peers, c.peers) {
			c.peers = m.Peers
		}
		return
	}
	// The server answers but holds no session for us: it restarted and
	// lost its state. Skip the remaining miss budget and recover now.
	if rec := c.server(from); rec.session != "" && rec.m.State() != protocol.StSuspended {
		c.onPeerLostLocked(from, "server lost session state")
	}
}

// onPeerLostLocked declares the server lost: the paper's suspend state is
// entered, the presentation freezes, and a resume-by-session-ID connect
// probes the server until the grace window closes, after which the client
// fails over. Caller holds c.mu.
func (c *Client) onPeerLostLocked(host, why string) {
	if c.recovering == host {
		return
	}
	c.opts.Obs.Counter("client_liveness_losses").Inc()
	c.opts.Obs.Emit(obs.EvLiveness, host, 0, "peer lost: "+why)
	c.logEvent("liveness lost: " + host)
	c.hbTimer.Stop()
	c.hbTimer = nil
	rec := c.server(host)
	rec.m.Try(protocol.InPeerLost)
	if p := c.pres; p != nil && !p.player.Finished() && p.doc.Host == host {
		p.player.Pause()
	}
	c.recovering = host
	grace := time.Duration(c.graceSecs) * time.Second
	if grace <= 0 {
		grace = 30 * time.Second
	}
	c.recoverDeadline = c.clk.Now().Add(grace)
	c.connectLocked(host)
}

// failoverLocked abandons a dead server: it is marked failed, its session
// and resume token are forgotten, and the move between servers starts toward
// the first untried replica, re-requesting the interrupted document there.
// Caller holds c.mu.
func (c *Client) failoverLocked(dead string) {
	c.recovering = ""
	c.failedPeers[dead] = true
	rec := c.server(dead)
	rec.session, rec.token = "", ""
	rec.m.Try(protocol.InGraceExpired)
	c.cancelPendingLocked(dead)
	target := c.nextTargetLocked(dead, c.peers)
	if target == "" {
		c.pres.close(c.net)
		c.strandLocked(failoverCause, dead, dead)
		return
	}
	doc := ""
	if c.pres != nil {
		doc = c.pres.doc.Name
	}
	c.beginMoveLocked(dead, target, doc, nil, c.peers)
	c.connectLocked(target)
}
