// Cluster behavior on the browser side: following load-aware admission
// redirects with a bounded hop count and capped backoff, and the one move
// between servers: the handoff a source server issues when a requested
// document is homed elsewhere, or a link the user follows to another host —
// connect to the target (with the signed ticket when there is one),
// re-request the document there, and fall back to the next replica, then to
// the suspended source, when the target is down or refuses.
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
	if c.redirectTried == nil {
		c.redirectTried = map[string]bool{}
	}
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
		c.connectLocked(target, false)
	})
}

// endRedirectEpisodeLocked abandons a redirect episode. Caller holds c.mu.
func (c *Client) endRedirectEpisodeLocked(from, why string) {
	c.lastError = why
	c.logEvent("redirect abandoned: " + why)
	c.redirectHops = 0
	c.redirectTried = nil
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

// beginMoveLocked is where every move between servers starts, whether the
// source handed the session off or the user followed a link to another
// host: the presentation here ends, the source's session is (or is about to
// be) suspended behind its grace timer, and doc is requested once a target
// admits us. The episode ends at the target's document response or, when no
// target answers, back at the source (handoffConnectFailedLocked).
// Caller holds c.mu.
func (c *Client) beginMoveLocked(from, to, doc string, ticket *protocol.HandoffTicket, peers []string) {
	c.teardownPresentationLocked()
	c.handoffFrom = from
	c.handoffTo = to
	c.handoffTicket = ticket
	c.handoffPeers = nil
	for _, p := range peers {
		if p != to {
			c.handoffPeers = append(c.handoffPeers, p)
		}
	}
	if c.handoffStart.IsZero() {
		// A chained handoff (target immediately hands off again) keeps the
		// original start, so the latency covers the whole user-visible gap.
		c.handoffStart = c.clk.Now()
	}
	c.pendingDoc = doc
	c.opts.Obs.Counter("client_handoffs").Inc()
	c.opts.Obs.Emit(obs.EvHandoff, from, 0, "handoff of "+doc+" → "+to)
	c.logEvent("handoff " + from + " → " + to)
}

// connectHandoffLocked connects to a handoff target, presenting the signed
// ticket (or plain credentials when the cluster runs unsigned). The request
// rides the normal tracked-retransmission machinery; exhaustion falls back
// via handoffConnectFailedLocked. Caller holds c.mu.
func (c *Client) connectHandoffLocked(host string) {
	if !c.connectable(host).m.Try(protocol.InConnect) {
		// E.g. a session already suspended toward the target: the ordinary
		// connect path resumes it by token.
		c.connectLocked(host, false)
		return
	}
	c.current = host
	c.lastConnect = nil
	body := protocol.Connect{
		User: c.opts.User, Class: c.opts.Class,
		PeakRate: c.opts.PeakRate, MinRate: c.opts.MinRate,
		FloorLevel: c.opts.FloorLevel,
		Handoff:    c.handoffTicket,
	}
	if body.Handoff == nil {
		body.Password = c.opts.Password
	}
	c.logEvent("handoff connect → " + host)
	c.sendReqLocked(host, protocol.MsgConnect, &body, time.Time{},
		func() { c.handoffConnectFailedLocked(host) })
}

// handoffConnectFailedLocked runs when the handoff target never answered:
// try the next replica holding the document, and when none is left, fall
// back to a plain reconnect at the suspended source (its grace timer is
// still running). Caller holds c.mu.
func (c *Client) handoffConnectFailedLocked(host string) {
	c.server(host).m.Try(protocol.InAuthReject)
	c.opts.Obs.Counter("client_handoff_fallbacks").Inc()
	c.logEvent("handoff target unreachable: " + host)
	if c.failedPeers == nil {
		c.failedPeers = map[string]bool{}
	}
	c.failedPeers[host] = true
	for _, p := range c.handoffPeers {
		if p != c.Host && p != c.handoffFrom && !c.failedPeers[p] {
			c.logEvent("handoff fallback → " + p)
			c.connectHandoffLocked(p)
			return
		}
	}
	// No replica left: return to the source, whose session is parked behind
	// the grace timer. The remote document stays unplayed.
	src := c.handoffFrom
	c.clearHandoffLocked()
	c.pendingDoc = ""
	if src != "" && c.server(src).token != "" {
		c.lastError = "handoff failed: " + host + " unreachable; returned to " + src
		c.logEvent("handoff failed; returning to " + src)
		c.connectLocked(src, false)
		return
	}
	c.lastError = "handoff failed: no reachable replica"
	c.logEvent("handoff failed: no reachable replica")
	if c.current == host {
		c.current = ""
	}
}

// clearHandoffLocked ends the handoff episode. Caller holds c.mu.
func (c *Client) clearHandoffLocked() {
	c.handoffFrom = ""
	c.handoffTo = ""
	c.handoffTicket = nil
	c.handoffPeers = nil
	c.handoffStart = time.Time{}
}
