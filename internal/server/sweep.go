package server

import (
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// This file holds the incremental periodic work of the control plane. Each
// heartbeat-capable session and each dedup ring carries one clock timer for
// its deadline, so the clock's own timer wheel is the only one: work happens
// when a deadline comes up, not on a tick that visits whatever is resident.
// The timers are lazy. A heartbeat or a cache hit only moves lastBeat or
// lastUsed; a fire takes the owner's lock, reads the current state and
// either acts on a deadline that has passed or re-arms itself for the one
// still ahead. A fire never arms a second timer, so a stale wall-clock fire
// can at worst check a deadline again. RTCP feedback renegotiation is
// batched: a feedback packet marks its session dirty, and a per-shard tick
// renegotiates each dirty session once instead of once per packet.

// livenessWindow is the silence budget after which a heartbeat-capable
// session is auto-suspended.
func (s *Server) livenessWindow() time.Duration {
	return time.Duration(s.opts.LivenessMisses) * s.opts.HeartbeatEvery
}

// beatLocked records a sign of life from the session's client now and arms
// its liveness timer if none is armed. Caller holds the session's shard
// lock. Only the heartbeat path and the ResumeSession recovery path beat:
// token resumes and raw-packet sessions are never liveness-policed.
func (s *Server) beatLocked(sess *session) {
	sess.lastBeat = s.clk.Now()
	if sess.liveTimer == nil {
		sess.liveTimer = s.clk.AfterFunc(s.livenessWindow(), func() { s.livenessFire(sess) })
	}
}

// livenessFire is a session's liveness timer. A client silent for the whole
// window gets its session auto-suspended; otherwise the timer re-arms for
// the deadline the latest heartbeat set. The suspend, teardown and reattach
// paths stop the timer and nil it, so a fire that finds none is stale and
// does nothing.
func (s *Server) livenessFire(sess *session) {
	sh, _ := s.lockSession(sess)
	defer sh.mu.Unlock()
	if sess.liveTimer == nil {
		return
	}
	if left := sess.lastBeat.Add(s.livenessWindow()).Sub(s.clk.Now()); left > 0 {
		sess.liveTimer.Reset(left)
		return
	}
	s.step(sess, protocol.InPeerLost)
	s.suspendSessionLocked(sh, sess)
	s.opts.Obs.Counter("server_sessions_suspended_liveness").Inc()
	s.opts.Obs.Emit(obs.EvLiveness, sess.user, 0,
		"client silent; session "+sess.id+" auto-suspended")
}

// ringFire is a dedup ring's TTL timer. A ring whose address owns a session
// lets its timer lapse: it is dropped with the session, or re-armed by
// releaseRingLocked when the session leaves the address. A sessionless ring
// idle for the whole TTL is evicted, and one used since re-arms for its new
// expiry. A ring no longer in its shard's map was dropped, and its fire does
// nothing.
func (s *Server) ringFire(ring *dedupRing) {
	sh := s.shardOf(ring.addr)
	// Session ownership is read under sh.mu, rings under sh.dmu (mu → dmu,
	// the handler path's order).
	sh.mu.Lock()
	sh.dmu.Lock()
	if sh.dedup[ring.addr] == ring {
		if _, owned := sh.sessions[ring.addr]; !owned {
			if left := ring.expiry().Sub(s.clk.Now()); left > 0 {
				ring.ttl.Reset(left)
			} else {
				delete(sh.dedup, ring.addr)
			}
		}
	}
	sh.dmu.Unlock()
	sh.mu.Unlock()
}

// releaseRingLocked re-arms a session's reply cache when the session leaves
// its address (cross-address reattach): the ring is sessionless again and
// must not outlive the TTL. Caller holds sh.mu.
func (s *Server) releaseRingLocked(sh *ctrlShard, addr string) {
	sh.dmu.Lock()
	if ring, ok := sh.dedup[addr]; ok {
		ring.ttl.Reset(ring.expiry().Sub(s.clk.Now()))
	}
	sh.dmu.Unlock()
}

// dropRingLocked deletes an address's reply cache outright (session
// teardown). Caller holds sh.mu.
func (sh *ctrlShard) dropRingLocked(addr string) {
	sh.dmu.Lock()
	if ring, ok := sh.dedup[addr]; ok {
		ring.ttl.Stop()
		delete(sh.dedup, addr)
	}
	sh.dmu.Unlock()
}

// queueRenegotiate marks a session's reservation dirty and arms its
// shard's renegotiation tick. RTCP feedback calls this instead of
// renegotiating inline, so a feedback burst costs one admission-pool
// renegotiation per session per tick, not one per packet.
func (s *Server) queueRenegotiate(sess *session) {
	if !sess.renegQueued.CompareAndSwap(false, true) {
		return
	}
	sh, si := s.lockSession(sess)
	sh.reneg = append(sh.reneg, sess)
	if !sh.renegOn {
		sh.renegOn = true
		s.clk.AfterFunc(s.opts.HeartbeatEvery, func() { s.renegTick(si) })
	}
	sh.mu.Unlock()
}

// renegTick renegotiates every session marked dirty since the last tick:
// the session's reservation is resized to the aggregate nominal rate of
// its streams at their current quality levels ([KRI 94]-style service
// renegotiation). The shard lock covers only the batch swap and the
// sender-list snapshots; per-stream rates are read through each sender's
// own lock and the admission pool has its own.
func (s *Server) renegTick(si int) {
	sh := &s.shards[si]
	type item struct {
		snds   []*sender
		connID int
	}
	sh.mu.Lock()
	batch := sh.reneg
	sh.reneg = nil
	sh.renegOn = false
	items := make([]item, 0, len(batch))
	for _, sess := range batch {
		sess.renegQueued.Store(false)
		// Skip sessions torn down — or moved to another shard — since they
		// were queued; a moved session's next feedback re-queues it there.
		if sh.byID[sess.id] != sess {
			continue
		}
		items = append(items, item{snds: sess.senders, connID: sess.connID})
	}
	sh.mu.Unlock()
	for _, it := range items {
		total := 0.0
		for _, snd := range it.snds {
			total += snd.nominalRate()
		}
		s.adm.Renegotiate(it.connID, total)
		s.opts.Obs.Counter("server_renegotiations").Inc()
	}
	if len(items) > 0 {
		s.opts.Obs.Counter("server_reneg_batches").Inc()
	}
}
