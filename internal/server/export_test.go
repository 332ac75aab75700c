package server

import "repro/internal/netsim"

// Test-only accessors into the sharded control plane, so tests reach
// session and dedup state without hard-coding the shard layout. The
// exported ones serve the package server_test invariants in world_test.go.

// RaceEnabled reports whether this test binary was built with -race.
const RaceEnabled = raceEnabled

// lockedSession write-locks addr's shard and returns the session attached
// there (nil when none) plus the unlock.
func (s *Server) lockedSession(addr netsim.Addr) (*session, func()) {
	sh := s.shardOf(string(addr))
	sh.mu.Lock()
	return sh.sessions[string(addr)], sh.mu.Unlock
}

// dedupHas reports whether addr currently holds a reply cache.
func (s *Server) dedupHas(addr netsim.Addr) bool {
	sh := s.shardOf(string(addr))
	sh.dmu.Lock()
	defer sh.dmu.Unlock()
	_, ok := sh.dedup[string(addr)]
	return ok
}

// isPaused reports whether the stream's pacing is currently paused.
func (sn *sender) isPaused() bool {
	fl := sn.flow()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.paused
}

// rtpPackets returns the RTP-layer packet count the stream's next sender
// report would carry.
func (sn *sender) rtpPackets() uint32 {
	fl := sn.flow()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.rtpS.PacketCount()
}

// DedupLen counts resident reply caches across all shards.
func (s *Server) DedupLen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.dmu.Lock()
		n += len(sh.dedup)
		sh.dmu.Unlock()
	}
	return n
}

// Senders counts the stream handles of every resident session, on the
// shards' unmetered read side.
func (s *Server) Senders() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, sess := range sh.sessions {
			n += len(sess.senders)
		}
		sh.mu.RUnlock()
	}
	return n
}
