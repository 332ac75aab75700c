package server

import (
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/stats"
)

// The control plane is sharded: session state and the dedup reply caches
// are split across ctrlShards address-hashed shards, each behind its own
// instrumented lock, so a connect storm on one slice of the address space
// never serializes with heartbeats or RTCP feedback on another. A session
// lives in the shard of its *current* client address; the rare cross-shard
// operation is a reattach that moves a session between addresses.
//
// Lock order (the flow.go header covers the data-plane end):
//
//	shard.mu → shard.dmu   (same shard; never dmu → any mu)
//	shard.mu(i) → shard.mu(j) only with i < j (cross-shard reattach)
//	shard.mu → sender.mu → flowRegistry.mu → flow.mu
//
// Control handlers may call a session's sender handles while holding its
// shard lock; a handle takes the registry lock only to join or split, and
// the paced emit path takes flow.mu alone — never a shard, handle or
// registry lock. Leaf locks (adm, users, qos managers, searchMu, annMu,
// peersMu) never call back into shard state, so they may be taken under a
// shard lock; a private flow reads its level through the qos manager's lock
// under flow.mu.

// ctrlShards is the number of control-plane shards; a power of two so the
// address hash reduces with a mask.
const ctrlShards = 16

// shardIndex hashes a client control address (FNV-1a) onto a shard.
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (ctrlShards - 1))
}

// lockMeter is one shard's control-plane mutex, instrumented so lock
// contention shows up as a distribution, not just a total: when the server
// has a telemetry scope, each write acquisition feeds a per-shard wait
// histogram, whose count is also how the data-plane tests prove the
// per-frame emit path never takes the lock. The two time.Now calls per
// acquisition cost tens of nanoseconds on control-plane operations that
// each do map work and I/O. Read-side acquisitions are unmetered: they
// exist precisely so read-only accessors can be served without polluting
// the meter.
type lockMeter struct {
	mu sync.RWMutex
	// hWait observes the wall time each Lock spent waiting. Set once at
	// Server.New (a shared no-op when telemetry is off), before any
	// concurrent use, so reads need no synchronization.
	hWait *stats.DurationHistogram
}

// Lock acquires the shard lock for writing.
func (m *lockMeter) Lock() {
	t0 := time.Now()
	m.mu.Lock()
	if m.hWait != nil {
		m.hWait.Observe(time.Since(t0))
	}
}

// Unlock releases the shard lock.
func (m *lockMeter) Unlock() { m.mu.Unlock() }

// RLock acquires the shard lock for reading, without touching the meter.
func (m *lockMeter) RLock() { m.mu.RLock() }

// RUnlock releases a read acquisition.
func (m *lockMeter) RUnlock() { m.mu.RUnlock() }

// ctrlShard is one slice of the control plane: the sessions whose client
// address hashes here, the resume-token and session-ID indexes of those
// sessions, their liveness timer wheel, the pending RTCP renegotiation
// batch, and the dedup reply caches of the addresses that hash here.
type ctrlShard struct {
	mu       lockMeter
	sessions map[string]*session // keyed by client control address
	byToken  map[string]*session
	byID     map[string]*session // keyed by session ID, for ResumeSession recovery
	// live is the liveness timer wheel: every heartbeat-capable session is
	// keyed on its next liveness deadline, so one sweep tick visits only
	// the sessions due now, not every resident session. liveOn tracks
	// whether the tick timer is armed; it arms lazily on the first
	// heartbeat and disarms when the wheel empties, so sessions driven by
	// raw packets (tests, old clients) are never liveness-policed and an
	// idle server's virtual clock drains.
	live   *wheel[*session]
	liveOn bool
	// reneg is the batch of sessions whose RTCP feedback changed their
	// stream mix's rate since the last renegotiation tick; the tick
	// renegotiates each once, instead of once per feedback packet.
	reneg   []*session
	renegOn bool

	// dedup caches, per client control address, the replies to recently
	// handled request IDs so retransmitted requests are answered
	// idempotently instead of re-running their side effects. It has its
	// own lock so replies can be cached while handlers hold mu (lock
	// order mu → dmu; never the reverse). Rings for clients that never
	// obtained a session (auth/admission rejects) sit on the rings TTL
	// wheel so a reject storm cannot grow the map without bound; rings of
	// live or suspended sessions leave the wheel and are deleted with the
	// session instead.
	dmu     sync.Mutex
	dedup   map[string]*dedupRing
	rings   *wheel[*dedupRing]
	ringsOn bool
}

// shardOf returns the shard owning a client address.
func (s *Server) shardOf(addr string) *ctrlShard { return &s.shards[shardIndex(addr)] }

// lockSession write-locks the shard currently holding sess and returns it.
// A session's shard can change under a cross-shard reattach, but the mover
// holds both shard locks while updating sess.shard, so once the loop holds
// the shard it re-read, the session can no longer move.
func (s *Server) lockSession(sess *session) (*ctrlShard, int) {
	for {
		si := int(sess.shard.Load())
		sh := &s.shards[si]
		sh.mu.Lock()
		if int(sess.shard.Load()) == si {
			return sh, si
		}
		sh.mu.Unlock()
	}
}

// lockPair write-locks shards oi and ni in ascending index order (a single
// acquisition when equal); unlockPair is its inverse.
func (s *Server) lockPair(oi, ni int) {
	lo, hi := oi, ni
	if lo > hi {
		lo, hi = hi, lo
	}
	s.shards[lo].mu.Lock()
	if hi != lo {
		s.shards[hi].mu.Lock()
	}
}

func (s *Server) unlockPair(oi, ni int) {
	lo, hi := oi, ni
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi != lo {
		s.shards[hi].mu.Unlock()
	}
	s.shards[lo].mu.Unlock()
}

// claimSessionFor locates the session pick selects (scanning shards — the
// resume paths are rare), then locks its shard together with the shard that
// owns the new client address, in ascending index order, and revalidates.
// On success both shard locks are held (one when they coincide) and the
// owning and target shard indexes are returned; the caller must unlockPair.
// When the session cannot be (re)found, sess is nil and nothing is held.
func (s *Server) claimSessionFor(from netsim.Addr, pick func(*ctrlShard) *session) (sess *session, oi, ni int) {
	ni = shardIndex(string(from))
	for attempt := 0; attempt < 4; attempt++ {
		oi = -1
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			found := pick(sh) != nil
			sh.mu.Unlock()
			if found {
				oi = i
				break
			}
		}
		if oi < 0 {
			return nil, -1, ni
		}
		s.lockPair(oi, ni)
		if sess = pick(&s.shards[oi]); sess != nil {
			return sess, oi, ni
		}
		// The session moved or expired between the scan and the lock;
		// rescan.
		s.unlockPair(oi, ni)
	}
	return nil, -1, ni
}

// Sessions returns the number of live sessions. Served from a counter the
// mutating paths maintain, so monitoring never touches the metered locks.
func (s *Server) Sessions() int { return int(s.sessionCount.Load()) }

// QoSManager returns the grading manager of the session attached to the
// given client address: nil when unknown, and nil until the session's
// first document, which builds it. Used by experiments to inspect
// quality trajectories. Read-only: it takes the shard's unmetered read
// side, so polling it during a lock-sampled window does not pollute the meter.
func (s *Server) QoSManager(client netsim.Addr) *qos.Manager {
	sh := s.shardOf(string(client))
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sess, ok := sh.sessions[string(client)]; ok {
		return sess.qosMgr
	}
	return nil
}

// dedupCap bounds the per-client reply cache.
const dedupCap = 64

// dedupTTL is how long a reply cache for a client without a session is kept
// after its last use. Clients whose connect was rejected (bad credentials,
// admission refusal) get a ring but never a session, so only the TTL wheel
// frees them; rings of live or suspended sessions are exempt and are
// deleted with the session instead.
const dedupTTL = 2 * time.Minute

// dedupRing is a bounded per-client cache of request IDs and their encoded
// replies, oldest first. A nil frame marks a request still being handled
// (in flight): its duplicates are dropped silently rather than re-executed.
// A frame is the reply's request-ID-0 encoding (see replyFrame), so rings
// can share one: every ring that answered a topic list holds the
// catalogue's one Topics frame.
type dedupRing struct {
	addr     string
	entries  []dedupEntry
	lastUsed time.Time
	pos      wheelPos // position on the shard's rings TTL wheel
}

// dedupEntry is one request ID and its reply frame.
type dedupEntry struct {
	id    uint32
	frame []byte
}

// find returns the entry of a request ID, searching from the newest, or
// nil.
func (r *dedupRing) find(reqID uint32) *dedupEntry {
	for i := len(r.entries) - 1; i >= 0; i-- {
		if r.entries[i].id == reqID {
			return &r.entries[i]
		}
	}
	return nil
}

// get returns the cached reply frame and whether the request ID was seen.
func (r *dedupRing) get(reqID uint32) ([]byte, bool) {
	if e := r.find(reqID); e != nil {
		return e.frame, true
	}
	return nil, false
}

// put records (or completes) a request ID, evicting the oldest when full.
func (r *dedupRing) put(reqID uint32, frame []byte) {
	if e := r.find(reqID); e != nil {
		e.frame = frame
		return
	}
	if len(r.entries) == dedupCap {
		copy(r.entries, r.entries[1:])
		r.entries = r.entries[:dedupCap-1]
	}
	r.entries = append(r.entries, dedupEntry{id: reqID, frame: frame})
}

// dedupRingLocked returns the client's reply cache on the shard owning it,
// refreshing its TTL position and lazily arming the shard's ring sweep;
// caller holds sh.dmu.
func (s *Server) dedupRingLocked(sh *ctrlShard, si int, client string) *dedupRing {
	ring, ok := sh.dedup[client]
	if !ok {
		ring = &dedupRing{addr: client, pos: noWheelPos()}
		sh.dedup[client] = ring
	}
	ring.lastUsed = s.clk.Now()
	// (Re)key the ring on its expiry. Session-backed rings get dropped at
	// their first fire (and deleted with the session), so the wheel — and
	// with it the tick timer — drains on an idle server even while live
	// sessions keep rings resident.
	sh.rings.schedule(ring, ring.lastUsed.Add(dedupTTL))
	if !sh.ringsOn {
		sh.ringsOn = true
		s.clk.AfterFunc(sh.rings.gran, func() { s.dedupTick(si) })
	}
	return ring
}
