package server

import (
	"sort"
	"strings"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
)

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

// gradeLevel reads the quality level of stream id in the session at addr,
// and whether it is stopped, through the sender's grading handle.
func (s *Server) gradeLevel(addr netsim.Addr, id string) (level int, stopped bool) {
	sess, unlock := s.lockedSession(addr)
	defer unlock()
	return sess.sender(id).grade.Level()
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

// FlowStat is one live shared flow's public snapshot.
type FlowStat struct {
	Doc         string
	Stream      string
	Level       int
	Subscribers int
	Next        int // the pacing cursor: the index of the next frame
}

// FlowStats snapshots every live shared flow (empty when shared flows are
// off or no flow is active).
func (s *Server) FlowStats() []FlowStat {
	s.flows.mu.Lock()
	defer s.flows.mu.Unlock()
	out := make([]FlowStat, 0, len(s.flows.flows))
	for key, fl := range s.flows.flows {
		fl.mu.Lock()
		out = append(out, FlowStat{
			Doc:         key.doc,
			Stream:      key.stream,
			Level:       key.level,
			Subscribers: len(fl.subs),
			Next:        fl.nextIdx,
		})
		fl.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Doc != out[j].Doc {
			return out[i].Doc < out[j].Doc
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// LockAcqs counts the write acquisitions of the control-plane shard locks
// so far, as the server_lock_wait histograms of the server's scope count
// them.
func LockAcqs(sc *obs.Scope) int64 {
	var n int64
	for _, p := range sc.Registry().Snapshot() {
		if strings.HasPrefix(p.Name, "server_lock_wait{") {
			n += p.Count
		}
	}
	return n
}

// Topics decodes the catalogue listing TopicsFrame sends.
func (db *Database) Topics(serverName string) []protocol.TopicInfo {
	var m protocol.Topics
	_, _, body, err := protocol.DecodeReq(db.TopicsFrame(serverName))
	if err == nil {
		err = protocol.DecodeBody(body, &m)
	}
	if err != nil {
		panic(err)
	}
	return m.Topics
}
