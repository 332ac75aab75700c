// Package clock abstracts time so that the entire service can run either on
// the operating-system wall clock (for the real client/server binaries) or on
// a deterministic virtual clock (for simulation, tests and benchmarks).
//
// All timing-sensitive code in this repository — playout scheduling, buffer
// monitoring, QoS feedback intervals, suspend grace periods — is written
// against the Clock interface, never against package time directly. This is
// what lets the experiment harness replay a multi-minute multimedia session
// in milliseconds while exercising exactly the production code paths.
//
// The Virtual clock doubles as a discrete-event scheduler: timers registered
// with AfterFunc fire as ordinary function calls from whichever goroutine
// drives the clock (Step, Run, RunFor or RunUntilIdle), in strict deadline
// order with FIFO tie-breaking. The scheduler's heap holds each pending
// timer's (deadline, sequence) key inline beside a pointer to the Timer, and
// the Timer keeps only its slot index, so arming one costs a single
// allocation and re-arming it none. A whole client/server session over the
// simulated network is therefore a single-threaded, perfectly reproducible
// computation.
package clock

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source used throughout the service.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the duration elapsed since t on this clock.
	Since(t time.Time) time.Duration
	// AfterFunc arranges for fn to be called once d has elapsed on this
	// clock and returns a handle that can cancel the call.
	AfterFunc(d time.Duration, fn func()) *Timer
}

// Timer is a cancellable pending AfterFunc call. A Virtual clock's timer
// knows only its slot in the scheduler's heap (guarded by v.mu); its deadline
// lives in the heap entry. A wall-clock timer (v == nil) only wraps the
// runtime timer.
type Timer struct {
	v    *Virtual
	wall *time.Timer

	fn    func()
	index int // heap index, -1 while not queued (fired or stopped)
}

// Stop cancels the timer. It reports true when the call was prevented from
// firing, false when it already fired (or was already stopped).
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	v := t.v
	if v == nil {
		return t.wall.Stop()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.index < 0 {
		return false
	}
	v.events.remove(t.index)
	return true
}

// Reset re-arms the timer to fire its function after d from now, whether it
// is still pending, already fired, or was stopped. It reports true when the
// timer was pending (the previously scheduled call is superseded). Reset
// lets a periodic caller — the media pacing loop re-arming itself every
// frame — reuse one timer instead of allocating a fresh AfterFunc per tick.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil {
		return false
	}
	v := t.v
	if v == nil {
		return t.wall.Reset(d)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	wasPending := t.index >= 0
	v.armLocked(t, d)
	return wasPending
}

// Every calls fn each d on c, re-arming one timer after each call, until the
// returned stop runs; a d <= 0 never calls it. fn runs under a lock that
// stop takes, so fn must not call stop: on the wall clock a call that fires
// while stop runs waits for it and then does nothing, and none starts once
// stop has returned.
func Every(c Clock, d time.Duration, fn func()) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	var t *Timer
	t = c.AfterFunc(d, func() {
		mu.Lock()
		defer mu.Unlock()
		if t != nil {
			fn()
			t.Reset(d)
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		t.Stop()
		t = nil
	}
}

// Wall is the operating-system real-time clock.
type Wall struct{}

// NewWall returns the wall clock.
func NewWall() Wall { return Wall{} }

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// AfterFunc implements Clock using the runtime timer system.
func (Wall) AfterFunc(d time.Duration, fn func()) *Timer {
	return &Timer{wall: time.AfterFunc(d, fn)}
}

// Virtual is a manually advanced simulation clock and discrete-event
// scheduler. It is safe for concurrent use, although deterministic replay
// requires a single driving goroutine.
//
// Virtual time is kept as int64 nanoseconds since Epoch, so it spans Epoch to
// Epoch + 292 years; a deadline past that end saturates there instead of
// wrapping around, so a huge delay never fires early.
type Virtual struct {
	mu     sync.Mutex
	now    atomic.Int64 // ns since Epoch; written under mu, read by Now without it
	events timerHeap
	seq    uint64 // last tie-break handed out
	fired  uint64 // lifetime count of events popped for firing
}

// Epoch is the conventional start instant for simulations: an arbitrary but
// fixed date so traces are reproducible byte-for-byte.
var Epoch = time.Date(1996, time.August, 6, 9, 0, 0, 0, time.UTC)

// NewSim returns a virtual clock starting at Epoch.
func NewSim() *Virtual { return &Virtual{} }

// entry is one pending timer in the heap: its deadline in ns since Epoch and
// its FIFO tie-break, inline so that comparisons never dereference t.
type entry struct {
	at  int64
	seq uint64
	t   *Timer
}

func (e *entry) before(f *entry) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// timerHeap is a 4-ary min-heap of entries ordered by (at, seq). Every move
// of an entry updates its timer's index.
type timerHeap []entry

const arity = 4

func (h *timerHeap) push(e entry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the entry at slot i out of the heap and returns its timer.
func (h *timerHeap) remove(i int) *Timer {
	old := *h
	t := old[i].t
	n := len(old) - 1
	old[i] = old[n]
	old[n] = entry{}
	*h = old[:n]
	if i < n {
		h.fix(i)
	}
	t.index = -1
	return t
}

// fix restores the heap order after the key at slot i changed.
func (h timerHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h timerHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.index = i
		i = p
	}
	h[i] = e
	e.t.index = i
}

// down sinks the entry at slot i and reports whether it moved.
func (h timerHeap) down(i int) bool {
	e, i0, n := h[i], i, len(h)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m, end := c, min(c+arity, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		h[i].t.index = i
		i = m
	}
	h[i] = e
	e.t.index = i
	return i > i0
}

// Now implements Clock.
func (v *Virtual) Now() time.Time { return Epoch.Add(time.Duration(v.now.Load())) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// armLocked queues t to fire d from now (a non-positive d means at the
// current instant), taking a fresh seq so that a re-armed timer lands after
// timers already scheduled for the same deadline, exactly as a new one would.
// Caller holds v.mu.
func (v *Virtual) armLocked(t *Timer, d time.Duration) {
	v.seq++
	now := v.now.Load()
	at := now + int64(max(d, 0))
	if at < now {
		at = math.MaxInt64
	}
	if t.index >= 0 {
		v.events[t.index].at, v.events[t.index].seq = at, v.seq
		v.events.fix(t.index)
	} else {
		v.events.push(entry{at: at, seq: v.seq, t: t})
	}
}

// AfterFunc implements Clock. A non-positive d schedules fn at the current
// instant; it still fires from the driver, never synchronously.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{v: v, fn: fn, index: -1}
	v.mu.Lock()
	v.armLocked(t, d)
	v.mu.Unlock()
	return t
}

// fireNext is the one firing step every driver is built on. It fires the
// earliest pending timer whose deadline is not after limit (ns since Epoch),
// advancing time to that deadline, and reports true. With nothing due it
// moves time forward to limit if advance is set, and reports false. Peek, pop
// and time-advance happen under a single lock acquisition; the callback runs
// unlocked.
func (v *Virtual) fireNext(limit int64, advance bool) bool {
	v.mu.Lock()
	if len(v.events) == 0 || v.events[0].at > limit {
		if advance && limit > v.now.Load() {
			v.now.Store(limit)
		}
		v.mu.Unlock()
		return false
	}
	if at := v.events[0].at; at > v.now.Load() {
		v.now.Store(at)
	}
	t := v.events.remove(0)
	v.fired++
	v.mu.Unlock()
	t.fn()
	return true
}

// Step fires the single earliest pending timer, advancing time to its
// deadline. It reports false when no timer is pending.
func (v *Virtual) Step() bool { return v.fireNext(math.MaxInt64, false) }

// Run fires every timer due by horizon, in deadline order, including timers
// scheduled by fired callbacks, and returns the number fired. A non-zero
// horizon is always where the clock ends up, whether or not the queue drained
// first; a zero horizon means run until idle and leaves the clock at the last
// deadline fired.
func (v *Virtual) Run(horizon time.Time) int {
	limit, advance := int64(math.MaxInt64), false
	if !horizon.IsZero() {
		limit, advance = int64(horizon.Sub(Epoch)), true
	}
	fired := 0
	for v.fireNext(limit, advance) {
		fired++
	}
	return fired
}

// RunFor runs the event loop for d of virtual time.
func (v *Virtual) RunFor(d time.Duration) int { return v.Run(v.Now().Add(d)) }

// RunUntilIdle fires every pending timer (including newly scheduled ones)
// until the queue drains, then returns the number fired.
func (v *Virtual) RunUntilIdle() int { return v.Run(time.Time{}) }

// Pending reports the number of scheduled, unfired timers.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.events)
}

// FiredCount reports the lifetime number of events this clock has fired.
func (v *Virtual) FiredCount() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fired
}

var (
	_ Clock = Wall{}
	_ Clock = (*Virtual)(nil)
)
