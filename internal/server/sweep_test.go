package server

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestDedupSweepQuiescesWithLiveSession pins the satellite-1 fix: once a
// ring's address owns a live session, the ring's lifetime is the session's
// — the expiry wheel must let go of it and the sweep timer must disarm.
// Pre-fix, the dedup sweep re-armed itself forever as long as ANY ring
// existed, so an idle server with one connected client never let the
// virtual clock go quiet.
func TestDedupSweepQuiescesWithLiveSession(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK {
		t.Fatalf("connect = %+v", cr)
	}

	// Run far past the dedup TTL with nothing else happening. The only
	// ring belongs to the connected client's session, so the sweep must
	// drop it from the wheel and stop re-arming.
	h.clk.RunFor(3 * dedupTTL)
	if n := h.clk.Pending(); n != 0 {
		t.Fatalf("%d timers still pending on an idle server; the dedup sweep never quiesced", n)
	}

	// The ring itself must survive the sweep (it dies with the session):
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

// wheelItem is a minimal wheel entry for driving wheel[T] directly.
type wheelItem struct {
	pos   wheelPos
	fired int
}

func newItemWheel(now time.Time, buckets int) *wheel[*wheelItem] {
	return newWheel(now, time.Second, buckets, func(it *wheelItem) *wheelPos { return &it.pos })
}

// TestWheelAdvanceVisitsOnlyDue pins the timer-wheel claim behind the
// liveness and dedup sweeps as a count of fire callbacks, not a wall-clock
// figure: a tick's work is the entries due that tick, however many are
// resident.
func TestWheelAdvanceVisitsOnlyDue(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)

	// Resident entries whose deadlines lie past the ticks advanced are never
	// touched, whether there are ten of them or ten thousand.
	const buckets, ticks = 64, 32
	for _, n := range []int{10, 10_000} {
		w := newItemWheel(t0, buckets)
		for i := 0; i < n; i++ {
			w.schedule(&wheelItem{pos: noWheelPos()},
				t0.Add(time.Duration(ticks+1+i%(buckets-ticks-1))*time.Second))
		}
		fires := 0
		for k := 1; k <= ticks; k++ {
			w.advance(t0.Add(time.Duration(k)*time.Second), func(*wheelItem) time.Time {
				fires++
				return time.Time{}
			})
		}
		if fires != 0 || w.Len() != n {
			t.Fatalf("n=%d: %d ticks with nothing due fired %d entries and left %d queued; want 0 and %d",
				n, ticks, fires, w.Len(), n)
		}
	}

	// An entry fires exactly once when its bucket comes up, is re-queued at
	// the deadline fire returns, and leaves the wheel on a zero return.
	w := newItemWheel(t0, 8)
	it := &wheelItem{pos: noWheelPos()}
	w.schedule(it, t0.Add(3*time.Second))
	var firedAt []int
	for k := 1; k <= 7; k++ {
		w.advance(t0.Add(time.Duration(k)*time.Second), func(got *wheelItem) time.Time {
			if got != it {
				t.Fatalf("tick %d fired a foreign entry", k)
			}
			firedAt = append(firedAt, k)
			if k == 3 {
				return t0.Add(6 * time.Second)
			}
			return time.Time{}
		})
	}
	if len(firedAt) != 2 || firedAt[0] != 3 || firedAt[1] != 6 {
		t.Fatalf("entry fired at ticks %v, want [3 6] (once per deadline, re-queued at the returned one)", firedAt)
	}
	if w.Len() != 0 || it.pos.bucket >= 0 {
		t.Fatalf("dropped entry still queued: len=%d pos=%+v", w.Len(), it.pos)
	}

	// A sleep longer than one rotation visits every bucket once: one entry
	// per bucket, each fired a single time.
	w = newItemWheel(t0, 8)
	items := make([]*wheelItem, 8)
	for i := range items {
		items[i] = &wheelItem{pos: noWheelPos()}
		w.schedule(items[i], t0.Add(time.Duration(i+1)*time.Second))
	}
	w.advance(t0.Add(3*8*time.Second+time.Second), func(got *wheelItem) time.Time {
		got.fired++
		return time.Time{}
	})
	for i, it := range items {
		if it.fired != 1 {
			t.Fatalf("after a three-rotation sleep entry %d fired %d times, want 1", i, it.fired)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("%d entries left queued after a full rotation", w.Len())
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
