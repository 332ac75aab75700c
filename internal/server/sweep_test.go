package server

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestDedupSweepQuiescesWithLiveSession: once a ring's address owns a live
// session, the ring's lifetime is the session's, so it holds no TTL timer.
// A dedup sweep that re-armed as long as any ring existed would keep an idle
// server with one connected client from ever letting the virtual clock go
// quiet.
func TestDedupSweepQuiescesWithLiveSession(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK {
		t.Fatalf("connect = %+v", cr)
	}
	// The only ring belongs to the connected client's session, so it holds
	// no timer at all.
	if n := h.clk.Pending(); n != 0 {
		t.Fatalf("%d timers pending right after a successful connect, want 0", n)
	}

	// Run far past the dedup TTL with nothing else happening.
	h.clk.RunFor(3 * dedupTTL)
	if n := h.clk.Pending(); n != 0 {
		t.Fatalf("%d timers still pending on an idle server; the dedup sweep never quiesced", n)
	}

	// The ring itself must survive its lapsed timer (it dies with the session):
	// a retransmission of the original connect is answered from the cache,
	// not re-admitted.
	decisions := h.srv.Admission().Decisions()
	h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	var cr2 protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr2)
	if !cr2.OK || cr2.SessionID != cr.SessionID {
		t.Fatalf("retransmitted connect = %+v, want cached reply for session %s", cr2, cr.SessionID)
	}
	if got := h.srv.Admission().Decisions(); got != decisions {
		t.Fatalf("retransmission cost %d extra admission decisions", got-decisions)
	}
	if got := h.srv.Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
}

// TestStaleTimerFiresDoNothing calls the sender-report callback of a
// playing session, the liveness callback of a suspended and of a torn-down
// session, and the TTL callback of a dropped ring, as a wall-clock fire that
// raced the path re-arming or stopping its timer does. None may arm a
// timer, and the last three, though every deadline they guard has passed,
// change nothing: the session keeps its state and its grace timer, and a
// fresh ring at the dropped one's address stays.
func TestStaleTimerFiresDoNothing(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: time.Hour, HeartbeatEvery: time.Second, LivenessMisses: 3})
	h.connectAndPlay(t)
	h.sendReq(0, protocol.MsgHeartbeat, &protocol.Heartbeat{})
	sess, unlock := h.srv.lockedSession(fakeClient)
	armed := sess.liveTimer != nil
	unlock()
	if !armed {
		t.Fatal("a heartbeat armed no liveness timer")
	}
	sh := h.srv.shardOf(string(fakeClient))
	sh.dmu.Lock()
	ring := sh.dedup[string(fakeClient)]
	sh.dmu.Unlock()

	// checkStale calls fire and wants no timer armed, no liveness suspend
	// and the session's own state unchanged.
	checkStale := func(what string, fire func()) {
		t.Helper()
		pending, sessions, rings := h.clk.Pending(), h.srv.Sessions(), h.srv.DedupLen()
		sh.mu.Lock()
		state, grace := sess.state.State(), sess.graceTimer
		sh.mu.Unlock()
		fire()
		if got := h.clk.Pending(); got != pending {
			t.Errorf("%s: the stale fire armed %d timers", what, got-pending)
		}
		if got, got2 := h.srv.Sessions(), h.srv.DedupLen(); got != sessions || got2 != rings {
			t.Errorf("%s: sessions %d → %d, rings %d → %d", what, sessions, got, rings, got2)
		}
		sh.mu.Lock()
		if sess.state.State() != state || sess.graceTimer != grace || sess.liveTimer != nil {
			t.Errorf("%s: the stale fire moved the session: state %v → %v, grace timer replaced %v, liveness timer %v",
				what, state, sess.state.State(), sess.graceTimer != grace, sess.liveTimer != nil)
		}
		sh.mu.Unlock()
		if got := h.scope.Counter("server_sessions_suspended_liveness").Value(); got != 0 {
			t.Errorf("%s: %d liveness suspends", what, got)
		}
	}

	// A sender-report fire that lost its race with a re-arm (a document
	// request, a recovery) finds the reports' one timer pending again: it
	// moves that timer and starts no second report loop.
	if sess.suspended() {
		t.Fatal("the playing session is suspended")
	}
	pending := h.clk.Pending()
	h.srv.sendSenderReports(sess)
	if got := h.clk.Pending(); got != pending {
		t.Errorf("a sender-report fire on a playing session armed %d timers", got-pending)
	}

	h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	if !sess.suspended() {
		t.Fatal("suspend refused")
	}
	// Past the liveness deadline, a fire that missed its stopped timer
	// would suspend the session a second time.
	h.clk.RunFor(5 * time.Second)
	checkStale("suspended session", func() { h.srv.livenessFire(sess) })

	h.sendReq(4, protocol.MsgDisconnect, &protocol.Disconnect{})
	if h.srv.Sessions() != 0 || h.srv.dedupHas(fakeClient) {
		t.Fatal("disconnect left the session or its ring")
	}
	checkStale("torn-down session", func() { h.srv.livenessFire(sess) })

	// Past the dropped ring's expiry, a rejected connect gives the address
	// a fresh sessionless ring, which holds exactly its TTL timer.
	h.clk.RunFor(dedupTTL)
	pending = h.clk.Pending()
	h.sendReq(5, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "wrong"})
	if !h.srv.dedupHas(fakeClient) {
		t.Fatal("a rejected connect left no ring")
	}
	if got := h.clk.Pending(); got != pending+1 {
		t.Errorf("a rejected connect's ring holds %d timers, want 1", got-pending)
	}
	checkStale("dropped ring", func() { h.srv.ringFire(ring) })
	if !h.srv.dedupHas(fakeClient) {
		t.Error("the dropped ring's fire evicted the address's fresh ring")
	}
}

// TestAccessorsStayOffLockMeter: the read-only accessors Sessions and
// QoSManager must not take the metered write lock — if they did, they would
// pollute the server_lock_wait histograms, hiding real contention behind
// monitoring noise and invalidating the data plane's paced_lock_acqs == 0
// proof.
func TestAccessorsStayOffLockMeter(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.connectAndPlay(t)

	acqs0 := LockAcqs(h.scope)
	for i := 0; i < 200; i++ {
		if got := h.srv.Sessions(); got != 1 {
			t.Fatalf("sessions = %d, want 1", got)
		}
		if h.srv.QoSManager(fakeClient) == nil {
			t.Fatal("no QoS manager for the connected client")
		}
	}
	acqs1 := LockAcqs(h.scope)
	if acqs1 != acqs0 {
		t.Fatalf("read-only accessors took the metered write lock %d times; they must serve off the read side",
			acqs1-acqs0)
	}
}

// TestDedupRingBounded: a reply cache holds the dedupCap newest request
// IDs, evicting the oldest first; completing an in-flight request keeps
// its place, and a frame several rings hold is shared, not copied.
func TestDedupRingBounded(t *testing.T) {
	var r dedupRing
	shared := []byte{byte(protocol.MsgTopics), 0, 0, 0, 0}
	const extra = 5
	for id := uint32(1); id <= dedupCap+extra; id++ {
		r.put(id, nil) // in flight
		r.put(id, shared)
	}
	if len(r.entries) != dedupCap {
		t.Fatalf("ring holds %d entries, want %d", len(r.entries), dedupCap)
	}
	for id := uint32(1); id <= dedupCap+extra; id++ {
		frame, seen := r.get(id)
		if seen != (id > extra) {
			t.Fatalf("request %d seen = %v; want the %d oldest evicted", id, seen, extra)
		}
		if seen && &frame[0] != &shared[0] {
			t.Fatalf("request %d: the ring copied the frame it was given", id)
		}
	}
	r.put(extra+1, nil)
	r.put(1000, nil)
	if _, seen := r.get(extra + 1); seen {
		t.Fatal("re-putting a known request moved it to the newest place")
	}
	if frame, seen := r.get(1000); !seen || frame != nil {
		t.Fatalf("in-flight request = %v %v, want seen with no frame", frame, seen)
	}
}
