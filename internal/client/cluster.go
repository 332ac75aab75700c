// Cluster behavior on the browser side: the one episode of changing
// servers. A move leaves a live source (a handoff or a link to another
// host), a dead one (a failover), or one that refused a fresh connect (a
// load-aware admission redirect). Each hop goes to the next untried target
// (with the signed ticket when there is one; a redirect hop after a capped
// backoff), and a move that no target takes returns to a live source or
// ends stranded.
package client

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// onRedirectLocked handles a ConnectResult carrying Redirect: the server is
// over its admission watermark and names less-loaded peers. A redirect is a
// move whose source refused us and joins the tried set (failedPeers), which
// bounds the hops; nextTargetLocked picks the next target from the named
// peers, then the known replicas, after a capped backoff. A refusal from the
// target of the move in flight (a ticketless link's) continues that move;
// any other begins one that holds no session. Caller holds c.mu.
func (c *Client) onRedirectLocked(from string, m protocol.ConnectResult) {
	c.server(from).m.Try(protocol.InAuthReject)
	if from != c.move.to {
		c.move = moveEpisode{moveCause: redirectCause, from: from}
	}
	c.failedPeers[from] = true
	c.opts.Obs.Emit(obs.EvRedirect, from, int64(c.move.hops), "redirected: "+m.Reason)
	c.logEvent("redirected by " + from + ": " + m.Reason)
	target := c.nextTargetLocked(from, append(append([]string{}, m.Peers...), c.peers...))
	if target == "" {
		c.moveFailedLocked(from)
		return
	}
	c.move.to = target
	c.move.hops++
	c.opts.Obs.Counter("client_redirects_followed").Inc()
	// Capped exponential backoff between hops: half the retry timeout on the
	// first hop, doubling up to the retry cap.
	delay := c.opts.RetryTimeout / 2 << (c.move.hops - 1)
	if delay > retryBackoffCap {
		delay = retryBackoffCap
	}
	c.logEvent(fmt.Sprintf("redirect %s → %s (hop %d)", from, target, c.move.hops))
	c.clk.AfterFunc(delay, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.connectLocked(target)
	})
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
	c.connectLocked(m.Redirect)
}

// moveCause is what differs between the causes of a move: a handoff or link
// leaves a live source, a failover a dead one, and a redirect a source that
// refused a fresh connect. counter, kind and note count and trace the start,
// verb opens each log line, and giveUp (logged after abandon) is the error a
// stranded move ends with. failover is the Connect.Failover bit, which
// exempts the connect from the target's redirect watermark. timed marks the
// handoff, whose episode runs on to the target's document response to time
// it; any other ends once a target admits us. fresh marks the redirect, which
// moves no session: each hop is a plain connect with the resume token, and a
// hop's refusal or timeout stands instead of falling back (no
// client_handoff_fallbacks).
type moveCause struct {
	counter, verb, giveUp, abandon string
	kind                           obs.EventKind
	note                           func(doc, to string) string
	failover, timed, fresh         bool
}

var (
	handoffCause = moveCause{counter: "client_handoffs", kind: obs.EvHandoff, verb: "handoff",
		note:   func(doc, to string) string { return "handoff of " + doc + " → " + to },
		giveUp: "handoff failed: no reachable replica", timed: true}
	failoverCause = moveCause{counter: "client_failovers", kind: obs.EvFailover, verb: "failover",
		note:   func(_, to string) string { return "failing over to " + to },
		giveUp: "failover failed: no reachable replica", failover: true}
	redirectCause = moveCause{verb: "redirect",
		giveUp: "redirected: no untried server", abandon: "redirect abandoned: ", fresh: true}
)

// moveEpisode is the move between servers in flight; the zero value is none.
// doc is requested once a target admits us; hops counts redirects followed.
type moveEpisode struct {
	moveCause
	from, to, doc string // the source, the current target
	ticket        *protocol.HandoffTicket
	peers         []string // the replicas to fall back to
	start         time.Time
	hops          int
}

// beginMoveLocked is where every move that carries a session starts (a
// redirect starts in onRedirectLocked). A source already marked failed is
// dead, so the move is a failover. The presentation here ends, and doc is
// requested once a target admits us. The episode ends at the target's
// document response (a failover's at its connect result) or, when no target
// takes us, in moveFailedLocked. Caller holds c.mu.
func (c *Client) beginMoveLocked(from, to, doc string, ticket *protocol.HandoffTicket, peers []string) {
	cause := handoffCause
	if c.failedPeers[from] {
		cause = failoverCause
	}
	c.pres.close(c.net)
	start := c.move.start
	if start.IsZero() {
		// A chained handoff (target immediately hands off again) keeps the
		// original start, so the latency covers the whole user-visible gap.
		start = c.clk.Now()
	}
	c.move = moveEpisode{moveCause: cause, from: from, to: to, doc: doc, ticket: ticket, peers: peers, start: start}
	c.opts.Obs.Counter(cause.counter).Inc()
	c.opts.Obs.Emit(cause.kind, from, 0, cause.note(doc, to))
	c.logEvent(cause.verb + " " + from + " → " + to)
}

// nextTargetLocked picks a move's next target: the first of peers that is
// neither this host, the move's source, nor a server that already failed or
// refused us in this episode ("" when none is left). Caller holds c.mu.
func (c *Client) nextTargetLocked(from string, peers []string) string {
	for _, p := range peers {
		if p != c.Host && p != from && !c.failedPeers[p] {
			return p
		}
	}
	return ""
}

// handoffConnectFailedLocked runs when a move's target never answered or
// refused: try the next replica, and when none is left, give the move up.
// Caller holds c.mu.
func (c *Client) handoffConnectFailedLocked(host string) {
	c.server(host).m.Try(protocol.InAuthReject)
	c.opts.Obs.Counter("client_handoff_fallbacks").Inc()
	c.logEvent(c.move.verb + " target unreachable: " + host)
	c.failedPeers[host] = true
	if p := c.nextTargetLocked(c.move.from, c.move.peers); p != "" {
		c.logEvent(c.move.verb + " fallback → " + p)
		c.move.to = p
		c.connectLocked(p)
		return
	}
	c.moveFailedLocked(host)
}

// moveFailedLocked gives up a move that no target took, host being the
// last one tried. A suspended source's grace timer is still running, so the
// browser returns there and the remote document stays unplayed; a dead
// source, or one that refused us, holds no resume token, and the move ends
// stranded. Caller holds c.mu.
func (c *Client) moveFailedLocked(host string) {
	move := c.move
	c.move = moveEpisode{}
	if src := move.from; src != "" && c.server(src).token != "" {
		c.lastError = move.verb + " failed: " + host + " unreachable; returned to " + src
		c.logEvent(move.verb + " failed; returning to " + src)
		c.connectLocked(src)
		return
	}
	c.strandLocked(move.moveCause, move.from, host)
}

// strandLocked ends a move that no target took and no source can take back,
// and its tried set with it. A stranded failover is traced, so the flight
// recorder dumps the outage. Caller holds c.mu.
func (c *Client) strandLocked(cause moveCause, src, host string) {
	clear(c.failedPeers)
	c.lastError = cause.giveUp
	c.logEvent(cause.abandon + c.lastError)
	if cause.failover {
		c.opts.Obs.Emit(obs.EvFailover, src, 0, "no replica available")
	}
	if c.current == host {
		c.current = ""
	}
}
