// Cluster behavior on the browser side: following load-aware admission
// redirects with a bounded hop count and capped backoff, and the one move
// between servers (a handoff, a link to another host, or a failover from a
// dead server): connect to the target (with the signed ticket when there is
// one), re-request the document there, and fall back to the next replica,
// then to a live source, when the target is down or refuses.
package client

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// onRedirectLocked handles a ConnectResult carrying Redirect: the server is
// over its admission watermark and names less-loaded peers. The client tries
// them in order, never revisiting a server within the episode, with a capped
// backoff between hops so a cluster-wide overload cannot tight-loop.
// Caller holds c.mu.
func (c *Client) onRedirectLocked(from string, m protocol.ConnectResult) {
	c.server(from).m.Try(protocol.InAuthReject)
	c.redirectTried[from] = true
	c.opts.Obs.Emit(obs.EvRedirect, from, int64(c.redirectHops), "redirected: "+m.Reason)
	c.logEvent("redirected by " + from + ": " + m.Reason)
	if c.redirectHops >= c.opts.MaxRedirectHops {
		c.endRedirectEpisodeLocked(from, "redirect hop limit reached")
		return
	}
	var target string
	for _, p := range append(append([]string{}, m.Peers...), c.peers...) {
		if p != c.Host && !c.redirectTried[p] {
			target = p
			break
		}
	}
	if target == "" {
		c.endRedirectEpisodeLocked(from, "redirected: no untried server")
		return
	}
	c.redirectHops++
	c.opts.Obs.Counter("client_redirects_followed").Inc()
	// Capped exponential backoff between hops: half the retry timeout on the
	// first hop, doubling up to the retry cap.
	delay := c.opts.RetryTimeout / 2 << (c.redirectHops - 1)
	if delay > retryBackoffCap {
		delay = retryBackoffCap
	}
	c.logEvent(fmt.Sprintf("redirect %s → %s (hop %d)", from, target, c.redirectHops))
	c.clk.AfterFunc(delay, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.connectLocked(target)
	})
}

// endRedirectEpisodeLocked abandons a redirect episode. Caller holds c.mu.
func (c *Client) endRedirectEpisodeLocked(from, why string) {
	c.lastError = why
	c.logEvent("redirect abandoned: " + why)
	c.redirectHops = 0
	clear(c.redirectTried)
	if c.current == from {
		c.current = ""
	}
}

// onDocHandoffLocked handles a DocResponse whose Redirect names another
// server: the source has suspended our session behind its grace machinery
// and (when the cluster runs signed handoffs) minted a ticket. Connect to
// the target, present the ticket, and re-request the document there.
// Caller holds c.mu.
func (c *Client) onDocHandoffLocked(from string, m protocol.DocResponse) {
	rec := c.server(from)
	rec.m.Try(protocol.InRedirect) // requesting → suspended, per Figure 4
	if m.ResumeToken != "" {
		rec.token = m.ResumeToken
	}
	if m.GraceSecs > 0 {
		c.graceSecs = m.GraceSecs
	}
	c.beginMoveLocked(from, m.Redirect, m.Name, m.Handoff, m.Peers)
	c.connectHandoffLocked(m.Redirect)
}

// moveCause is what differs between the causes of a move: a handoff or link
// leaves a live source, a failover a dead one. counter counts the moves
// started, kind and note trace the start, verb opens each log line, and
// failover is the Connect.Failover bit, which exempts the connect from the
// target's redirect watermark. Only a handoff times its completion.
type moveCause struct {
	counter, verb string
	kind          obs.EventKind
	note          func(doc, to string) string
	failover      bool
}

var (
	handoffCause = moveCause{counter: "client_handoffs", kind: obs.EvHandoff, verb: "handoff",
		note: func(doc, to string) string { return "handoff of " + doc + " → " + to }}
	failoverCause = moveCause{counter: "client_failovers", kind: obs.EvFailover, verb: "failover",
		note: func(_, to string) string { return "failing over to " + to }, failover: true}
)

// moveEpisode is the move between servers in flight; the zero value is none.
// doc is requested once a target admits us.
type moveEpisode struct {
	moveCause
	from, to, doc string // the source, the first target
	ticket        *protocol.HandoffTicket
	peers         []string // the replicas to fall back to
	start         time.Time
}

// beginMoveLocked is where every move between servers starts. A source
// already marked failed is dead, so the move is a failover. The presentation
// here ends, and doc is requested once a target admits us. The episode ends
// at the target's document response (a failover's at its connect result) or,
// when no target takes us, at a live source (handoffConnectFailedLocked).
// Caller holds c.mu.
func (c *Client) beginMoveLocked(from, to, doc string, ticket *protocol.HandoffTicket, peers []string) {
	cause := handoffCause
	if c.failedPeers[from] {
		cause = failoverCause
	}
	c.teardownPresentationLocked()
	start := c.move.start
	if start.IsZero() {
		// A chained handoff (target immediately hands off again) keeps the
		// original start, so the latency covers the whole user-visible gap.
		start = c.clk.Now()
	}
	c.move = moveEpisode{cause, from, to, doc, ticket, peers, start}
	c.opts.Obs.Counter(cause.counter).Inc()
	c.opts.Obs.Emit(cause.kind, from, 0, cause.note(doc, to))
	c.logEvent(cause.verb + " " + from + " → " + to)
}

// nextTargetLocked picks a move's next target: the first of peers that is
// neither this host, the move's source, nor a server that already failed in
// this episode ("" when none is left). Caller holds c.mu.
func (c *Client) nextTargetLocked(from string, peers []string) string {
	for _, p := range peers {
		if p != c.Host && p != from && !c.failedPeers[p] {
			return p
		}
	}
	return ""
}

// connectHandoffLocked connects to a move's target, presenting the signed
// ticket (or plain credentials when there is none). A retransmitted request
// that runs out falls back via handoffConnectFailedLocked. Caller holds c.mu.
func (c *Client) connectHandoffLocked(host string) {
	if !c.connectable(host).m.Try(protocol.InConnect) {
		// E.g. a session already suspended toward the target: the ordinary
		// connect path resumes it by token.
		c.connectLocked(host)
		return
	}
	c.current = host
	c.lastConnect = nil
	body := protocol.Connect{
		User: c.opts.User, Class: c.opts.Class,
		PeakRate: c.opts.PeakRate, MinRate: c.opts.MinRate,
		FloorLevel: c.opts.FloorLevel,
		Handoff:    c.move.ticket,
		Failover:   c.move.failover,
	}
	if body.Handoff == nil {
		body.Password = c.opts.Password
	}
	c.logEvent(c.move.verb + " connect → " + host)
	c.sendReqLocked(host, protocol.MsgConnect, &body, time.Time{},
		func() { c.handoffConnectFailedLocked(host) })
}

// handoffConnectFailedLocked runs when a move's target never answered or
// refused: try the next replica, and when none is left, fall back to a plain
// reconnect at a suspended source (its grace timer is still running); a dead
// one holds no resume token. Caller holds c.mu.
func (c *Client) handoffConnectFailedLocked(host string) {
	c.server(host).m.Try(protocol.InAuthReject)
	c.opts.Obs.Counter("client_handoff_fallbacks").Inc()
	move := c.move
	c.logEvent(move.verb + " target unreachable: " + host)
	c.failedPeers[host] = true
	if p := c.nextTargetLocked(move.from, move.peers); p != "" {
		c.logEvent(move.verb + " fallback → " + p)
		c.connectHandoffLocked(p)
		return
	}
	// No replica left: return to the source, whose session is parked behind
	// the grace timer. The remote document stays unplayed.
	c.move = moveEpisode{}
	if src := move.from; src != "" && c.server(src).token != "" {
		c.lastError = move.verb + " failed: " + host + " unreachable; returned to " + src
		c.logEvent(move.verb + " failed; returning to " + src)
		c.connectLocked(src)
		return
	}
	c.moveStrandedLocked(move.moveCause, move.from, host)
}

// moveStrandedLocked ends a move that no target took and no source can take
// back. A stranded failover is traced, so the flight recorder dumps the
// outage. Caller holds c.mu.
func (c *Client) moveStrandedLocked(cause moveCause, src, host string) {
	c.lastError = cause.verb + " failed: no reachable replica"
	c.logEvent(c.lastError)
	if cause.failover {
		c.opts.Obs.Emit(obs.EvFailover, src, 0, "no replica available")
	}
	if c.current == host {
		c.current = ""
	}
}
