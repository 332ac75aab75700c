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
// order with FIFO tie-breaking. A Timer is its own entry in the scheduler's
// heap, so arming one costs a single allocation and re-arming it none. A whole
// client/server session over the simulated network is therefore a
// single-threaded, perfectly reproducible computation.
package clock

import (
	"container/heap"
	"sync"
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

// Timer is a cancellable pending AfterFunc call. A Virtual clock's timer is
// the scheduler's own heap entry: at, seq and index are guarded by v.mu. A
// wall-clock timer (v == nil) only wraps the runtime timer.
type Timer struct {
	v    *Virtual
	wall *time.Timer

	at    time.Time
	seq   uint64 // tie-break so equal deadlines fire FIFO
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
	heap.Remove(&v.events, t.index)
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
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	events timerHeap
	seq    uint64 // last tie-break handed out
	fired  uint64 // lifetime count of events popped for firing
}

// Epoch is the conventional start instant for simulations: an arbitrary but
// fixed date so traces are reproducible byte-for-byte.
var Epoch = time.Date(1996, time.August, 6, 9, 0, 0, 0, time.UTC)

// NewSim returns a virtual clock starting at Epoch.
func NewSim() *Virtual { return &Virtual{now: Epoch} }

type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x interface{}) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// armLocked queues t to fire d from now (a non-positive d means at the
// current instant), taking a fresh seq so that a re-armed timer lands after
// timers already scheduled for the same deadline, exactly as a new one would.
// Caller holds v.mu.
func (v *Virtual) armLocked(t *Timer, d time.Duration) {
	v.seq++
	t.at, t.seq = v.now.Add(max(d, 0)), v.seq
	if t.index >= 0 {
		heap.Fix(&v.events, t.index)
	} else {
		heap.Push(&v.events, t)
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
// earliest pending timer whose deadline is not after limit (a zero limit
// admits any deadline), advancing time to that deadline, and reports true.
// With nothing due it moves time forward to limit and reports false. Peek,
// pop and time-advance happen under a single lock acquisition; the callback
// runs unlocked.
func (v *Virtual) fireNext(limit time.Time) bool {
	v.mu.Lock()
	if len(v.events) == 0 || (!limit.IsZero() && v.events[0].at.After(limit)) {
		if limit.After(v.now) {
			v.now = limit
		}
		v.mu.Unlock()
		return false
	}
	t := heap.Pop(&v.events).(*Timer)
	if t.at.After(v.now) {
		v.now = t.at
	}
	v.fired++
	v.mu.Unlock()
	t.fn()
	return true
}

// Step fires the single earliest pending timer, advancing time to its
// deadline. It reports false when no timer is pending.
func (v *Virtual) Step() bool { return v.fireNext(time.Time{}) }

// Run fires every timer due by horizon, in deadline order, including timers
// scheduled by fired callbacks, and returns the number fired. A non-zero
// horizon is always where the clock ends up, whether or not the queue drained
// first; a zero horizon means run until idle and leaves the clock at the last
// deadline fired.
func (v *Virtual) Run(horizon time.Time) int {
	fired := 0
	for v.fireNext(horizon) {
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
