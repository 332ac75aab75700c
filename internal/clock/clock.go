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
// order with FIFO tie-breaking. Deadlines within about 134 ms of now sit in a
// bucket wheel: 8 192 buckets of 2^14 ns, each an unsorted list of slab
// nodes in arming order, with a bitmap that finds the first non-empty bucket
// and a scan for the earliest deadline in it. Later deadlines wait in a 4-ary
// heap and move into the wheel as time reaches them. A Timer keeps only its
// node or heap slot, so arming one costs a single allocation and re-arming
// it none. A whole client/server session over the simulated network is
// therefore a single-threaded, perfectly reproducible computation.
package clock

import (
	"math"
	"math/bits"
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
// knows only where it is queued (guarded by v.mu); its deadline lives there.
// A wall-clock timer (v == nil) only wraps the runtime timer.
type Timer struct {
	v    *Virtual
	wall *time.Timer

	fn func()
	// index is the timer's wheel node (> 0), ^slot of its far-heap entry
	// (< 0), or 0 while not queued (fired or stopped).
	index int
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
	if t.index == 0 {
		return false
	}
	v.unqueueLocked(t)
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
	wasPending := t.index != 0
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
//
// Pending timers are kept in two places. Those due before the end of the
// wheel's window, buckets cursor to cursor+slots-1, are nodes in the bucket
// their deadline falls in; the rest are entries of the far heap, ordered by
// (deadline, seq). The window starts at now's bucket and moves only when now
// does, so every bucket it leaves is empty and every far entry it reaches
// moves into an empty bucket, in heap order. A bucket's ring is therefore in
// arming order, and the first of its earliest deadlines is the one armed
// first: nodes need no seq, and a node is 16 B where an entry is 24.
type Virtual struct {
	mu     sync.Mutex
	now    atomic.Int64 // ns since Epoch; written under mu, read by Now without it
	seq    uint64       // last tie-break handed out
	fired  uint64       // lifetime count of events popped for firing
	cursor int64        // now's bucket number (now >> slotShift), where the window starts
	near   int          // timers in the wheel
	nodes  []node       // the wheel's nodes; nodes[0] is unused, so 0 names none
	free   int32        // first node of the free list, linked by next
	far    timerHeap

	heads *[slots]int32        // each bucket's last node; 0 when empty
	used  [slots / 64]uint64   // bit b set when bucket b holds a node
	words [slots / 4096]uint64 // bit w set when used[w] != 0
}

// The wheel: slots buckets of 2^slotShift ns each, a window of 2^27 ns
// (≈ 134 ms). It holds a paced stream's frame period, a network hop and the
// player's 100 ms skew check; doubling it would keep under 1 % more of the
// media workloads' timers out of the far heap, for twice the table.
const (
	slotShift = 14
	slots     = 1 << 13
	window    = slots << slotShift
)

// node is one timer queued in the wheel. key is its deadline modulo the
// window, so the bucket is key >> slotShift, and next links the bucket's
// ring (or the free list): the last node links to the first.
type node struct {
	t    *Timer
	next int32
	key  uint32
}

// Epoch is the conventional start instant for simulations: an arbitrary but
// fixed date so traces are reproducible byte-for-byte.
var Epoch = time.Date(1996, time.August, 6, 9, 0, 0, 0, time.UTC)

// NewSim returns a virtual clock starting at Epoch.
func NewSim() *Virtual { return &Virtual{heads: new([slots]int32)} }

// entry is one pending timer in the far heap: its deadline in ns since Epoch
// and its FIFO tie-break, inline so that comparisons never dereference t.
type entry struct {
	at  int64
	seq uint64
	t   *Timer
}

func (e *entry) before(f *entry) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// timerHeap is a 4-ary min-heap of entries ordered by (at, seq). Every move
// of an entry updates its timer's index to ^slot.
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
	t.index = 0
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
		h[i].t.index = ^i
		i = p
	}
	h[i] = e
	e.t.index = ^i
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
		h[i].t.index = ^i
		i = m
	}
	h[i] = e
	e.t.index = ^i
	return i > i0
}

// Now implements Clock.
func (v *Virtual) Now() time.Time { return Epoch.Add(time.Duration(v.now.Load())) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// inWheel reports whether a deadline falls inside the wheel's window.
func (v *Virtual) inWheel(at int64) bool { return at>>slotShift < v.cursor+slots }

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
	switch i, near := t.index, v.inWheel(at); {
	case i > 0 && near:
		// Re-link at the end of its bucket, after every node armed before.
		n := int32(i)
		v.unlinkAfter(v.pred(n))
		v.link(n, uint32(at)&(window-1))
	case i < 0 && !near:
		e := &v.far[^i]
		e.at, e.seq = at, v.seq
		v.far.fix(^i)
	default:
		if i != 0 {
			v.unqueueLocked(t)
		}
		v.queueLocked(t, at)
	}
}

// queueLocked files an unqueued timer under deadline at: at the end of its
// bucket when the window covers at, in the far heap otherwise.
func (v *Virtual) queueLocked(t *Timer, at int64) {
	if !v.inWheel(at) {
		v.far.push(entry{at: at, seq: v.seq, t: t})
		return
	}
	n := v.free
	if n != 0 {
		v.free = v.nodes[n].next
	} else {
		if len(v.nodes) == 0 {
			v.nodes = append(v.nodes, node{})
		}
		n = int32(len(v.nodes))
		v.nodes = append(v.nodes, node{})
	}
	v.nodes[n].t = t
	t.index = int(n)
	v.link(n, uint32(at)&(window-1))
}

// unqueueLocked takes a queued timer out of the wheel or the far heap.
func (v *Virtual) unqueueLocked(t *Timer) {
	if i := t.index; i < 0 {
		v.far.remove(^i)
	} else {
		v.freeNode(v.unlinkAfter(v.pred(int32(i))))
	}
}

// freeNode returns an unlinked node to the free list, unqueueing its timer.
func (v *Virtual) freeNode(n int32) {
	v.nodes[n].t.index = 0
	v.nodes[n] = node{next: v.free}
	v.free = n
}

// link appends node n, keyed key, to the end of its bucket.
func (v *Virtual) link(n int32, key uint32) {
	b := key >> slotShift
	v.nodes[n].key = key
	v.near++
	if last := v.heads[b]; last == 0 {
		v.nodes[n].next = n
		v.used[b>>6] |= 1 << (b & 63)
		v.words[b>>12] |= 1 << (b >> 6 & 63)
	} else {
		v.nodes[n].next = v.nodes[last].next
		v.nodes[last].next = n
	}
	v.heads[b] = n
}

// pred returns the node before n in its bucket's ring.
func (v *Virtual) pred(n int32) int32 {
	p := v.heads[v.nodes[n].key>>slotShift]
	for v.nodes[p].next != n {
		p = v.nodes[p].next
	}
	return p
}

// unlinkAfter takes the node after p out of its bucket's ring and returns it.
func (v *Virtual) unlinkAfter(p int32) int32 {
	n := v.nodes[p].next
	b := v.nodes[n].key >> slotShift
	v.near--
	switch {
	case n == p:
		v.heads[b] = 0
		if v.used[b>>6] &^= 1 << (b & 63); v.used[b>>6] == 0 {
			v.words[b>>12] &^= 1 << (b >> 6 & 63)
		}
	case v.heads[b] == n:
		v.heads[b] = p
		fallthrough
	default:
		v.nodes[p].next = v.nodes[n].next
	}
	return n
}

// deadline returns the deadline a wheel key stands for: the one instant in
// the window that is key modulo the window.
func (v *Virtual) deadline(key uint32) int64 {
	base := v.cursor << slotShift
	return base + int64((key-uint32(base))&(window-1))
}

// earliestLocked finds the wheel node that fires next and returns the node
// before it in its bucket's ring. Every wheel node precedes every far entry;
// the first non-empty bucket from the cursor holds the earliest deadlines,
// and the first of them in the ring was armed first. Caller holds v.mu and
// knows the wheel is not empty.
func (v *Virtual) earliestLocked() int32 {
	last := v.heads[v.firstBucket(int(v.cursor)&(slots-1))]
	p, key := last, v.nodes[v.nodes[last].next].key
	for q := v.nodes[last].next; q != last; q = v.nodes[q].next {
		if k := v.nodes[v.nodes[q].next].key; k < key {
			p, key = q, k
		}
	}
	return p
}

// firstBucket returns the first non-empty bucket at or after b, wrapping
// round the wheel; at least one must be non-empty.
func (v *Virtual) firstBucket(b int) int {
	w := b >> 6
	if m := v.used[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	if w = v.firstWord(w + 1); w < 0 {
		w = v.firstWord(0) // wrapped: used[b>>6] holds no bit at or above b
	}
	return w<<6 | bits.TrailingZeros64(v.used[w])
}

// firstWord returns the first non-zero word of used at or after w, or -1.
func (v *Virtual) firstWord(w int) int {
	for i := w >> 6; i < len(v.words); i++ {
		m := v.words[i]
		if i == w>>6 {
			m &= ^uint64(0) << (w & 63)
		}
		if m != 0 {
			return i<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// advanceLocked moves time forward to now and the window with it, filing
// the far entries the window now reaches into their buckets in heap order.
func (v *Virtual) advanceLocked(now int64) {
	v.now.Store(now)
	if c := now >> slotShift; c != v.cursor {
		v.cursor = c
		for len(v.far) > 0 && v.inWheel(v.far[0].at) {
			at := v.far[0].at
			v.queueLocked(v.far.remove(0), at)
		}
	}
}

// AfterFunc implements Clock. A non-positive d schedules fn at the current
// instant; it still fires from the driver, never synchronously.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{v: v, fn: fn}
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
	var t *Timer
	if v.near > 0 {
		p := v.earliestLocked()
		n := v.nodes[p].next
		if at := v.deadline(v.nodes[n].key); at <= limit {
			t = v.nodes[n].t
			v.freeNode(v.unlinkAfter(p))
			v.fire(at)
		}
	} else if len(v.far) > 0 && v.far[0].at <= limit {
		at := v.far[0].at
		t = v.far.remove(0)
		v.fire(at)
	}
	if t == nil {
		if advance && limit > v.now.Load() {
			v.advanceLocked(limit)
		}
		v.mu.Unlock()
		return false
	}
	v.mu.Unlock()
	t.fn()
	return true
}

// fire counts an event due at at, advancing time to it. Caller holds v.mu.
func (v *Virtual) fire(at int64) {
	if at > v.now.Load() {
		v.advanceLocked(at)
	}
	v.fired++
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
	return v.near + len(v.far)
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
