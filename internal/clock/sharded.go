// ShardedVirtual: a parallel discrete-event driver over N Virtual clocks.
//
// The single Virtual clock serializes the whole simulated world through one
// event heap and one driving goroutine. ShardedVirtual partitions the world:
// each shard owns its own Virtual (heap, now, seq) and is advanced by its own
// worker, so independent host groups simulate in parallel on real cores.
//
// Correctness rests on a conservative lookahead barrier, the classic
// Chandy–Misra–Bryant argument specialized to synchronous windows: if every
// cross-shard interaction carries at least `lookahead` of virtual latency
// (in this repo, the minimum cross-shard link propagation delay), then all
// shards may safely run a window of width `lookahead` in parallel — any
// cross-shard event generated inside the window lands at or after the
// window's end, never in a peer's past. Between windows the coordinator
// drains the cross-shard mailboxes into the destination heaps in a
// deterministic order (arrival time, then source shard, then per-source
// send order), so a given seed and shard assignment replays byte-identically
// regardless of GOMAXPROCS or how the OS interleaves the workers.
//
// With a single shard the driver degenerates to exactly the old semantics:
// Run delegates straight to the one Virtual's own loop, so shards=1
// reproduces the single-heap event order bit for bit.
package clock

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// parallelWorkers reports whether fanning a window out to per-shard
// goroutines can actually overlap on this runtime. With GOMAXPROCS=1 the
// coordinator runs the shards in-line instead, which produces the identical
// event order (windows are independent across shards) without the spawn
// overhead.
func parallelWorkers() bool { return runtime.GOMAXPROCS(0) > 1 }

// crossEvent is one cross-shard handoff: fn scheduled at absolute instant at
// on the destination shard.
type crossEvent struct {
	at time.Time
	fn func()
}

// ShardedVirtual drives N Virtual shards under a conservative-lookahead
// barrier. Shard clocks are handed to the components simulated on that
// shard; cross-shard work is injected with ScheduleCross.
type ShardedVirtual struct {
	shards    []*Virtual
	lookahead time.Duration

	// rows[src][dst] is the mailbox of cross-shard events generated
	// by src for dst during the current window. Row src is written only by
	// shard src's worker (or by setup code before Run), and drained only by
	// the coordinator at the barrier, so no lock guards it: the window
	// barrier itself is the synchronization.
	rows [][][]crossEvent

	// windowEnd is the end of the window currently running; written by the
	// coordinator before workers start (happens-before via goroutine
	// creation), read by workers to clamp a too-early cross-shard arrival.
	windowEnd time.Time

	crossSent   atomic.Int64
	crossClamps atomic.Int64

	rounds  int64
	scratch []crossEvent // coordinator-only drain buffer, reused across rounds
}

// NewShardedSim creates a driver over shards Virtual clocks starting at
// Epoch. lookahead must be positive and no larger than the minimum
// cross-shard virtual latency the caller's workload guarantees.
func NewShardedSim(shards int, lookahead time.Duration) *ShardedVirtual {
	if shards < 1 {
		panic("clock: NewShardedSim needs at least one shard")
	}
	if lookahead <= 0 {
		panic("clock: NewShardedSim needs a positive lookahead")
	}
	sv := &ShardedVirtual{
		shards:    make([]*Virtual, shards),
		lookahead: lookahead,
		rows:      make([][][]crossEvent, shards),
	}
	for i := range sv.shards {
		sv.shards[i] = NewSim()
		sv.rows[i] = make([][]crossEvent, shards)
	}
	return sv
}

// Shards reports the shard count.
func (sv *ShardedVirtual) Shards() int { return len(sv.shards) }

// Lookahead reports the conservative window width.
func (sv *ShardedVirtual) Lookahead() time.Duration { return sv.lookahead }

// Shard returns shard i's clock. Components simulated on shard i must use
// this clock for all their timers; their callbacks then run on shard i's
// worker, serialized with everything else on the shard.
func (sv *ShardedVirtual) Shard(i int) *Virtual { return sv.shards[i] }

// Now returns the group floor: the minimum shard time. Between windows every
// shard sits exactly at the floor; while a window runs, shards may be up to
// lookahead ahead of it.
func (sv *ShardedVirtual) Now() time.Time {
	floor := sv.shards[0].Now()
	for _, s := range sv.shards[1:] {
		if t := s.Now(); t.Before(floor) {
			floor = t
		}
	}
	return floor
}

// Since returns the duration elapsed since t on the group floor.
func (sv *ShardedVirtual) Since(t time.Time) time.Duration { return sv.Now().Sub(t) }

// Pending reports scheduled-but-unfired events across all shards plus
// undelivered cross-shard mail.
func (sv *ShardedVirtual) Pending() int {
	n := 0
	for _, s := range sv.shards {
		n += s.Pending()
	}
	for _, row := range sv.rows {
		for _, cell := range row {
			n += len(cell)
		}
	}
	return n
}

// ScheduleCross injects fn at absolute instant at on shard dst, on behalf of
// shard src. It must be called either from shard src's worker (the normal
// case: a Send fired by one of src's events) or from setup code before the
// driver runs. An arrival earlier than the running window's end would land
// in the destination's past; it is clamped to the window end and counted —
// with a correctly chosen lookahead the clamp never fires.
func (sv *ShardedVirtual) ScheduleCross(src, dst int, at time.Time, fn func()) {
	if src == dst {
		sv.shards[dst].At(at, fn)
		return
	}
	if we := sv.windowEnd; !we.IsZero() && at.Before(we) {
		at = we
		sv.crossClamps.Add(1)
	}
	sv.rows[src][dst] = append(sv.rows[src][dst], crossEvent{at: at, fn: fn})
	sv.crossSent.Add(1)
}

// CrossStats reports cross-shard traffic accounting: handoffs enqueued,
// arrivals clamped to a window edge (0 when the lookahead honors the
// workload's true minimum latency), and barrier rounds driven.
func (sv *ShardedVirtual) CrossStats() (sent, clamps, rounds int64) {
	return sv.crossSent.Load(), sv.crossClamps.Load(), sv.rounds
}

// drainMail moves every pending cross-shard event into its destination heap.
// Coordinator-only. Events for one destination are sorted by arrival time
// with ties broken by (source shard, send order) — the iteration order below
// plus a stable sort — so heap insertion order, and therefore FIFO
// tie-breaking, is identical on every replay.
func (sv *ShardedVirtual) drainMail() {
	n := len(sv.shards)
	for dst := 0; dst < n; dst++ {
		batch := sv.scratch[:0]
		for src := 0; src < n; src++ {
			cell := sv.rows[src][dst]
			if len(cell) == 0 {
				continue
			}
			batch = append(batch, cell...)
			sv.rows[src][dst] = cell[:0]
		}
		if len(batch) == 0 {
			continue
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].at.Before(batch[j].at) })
		d := sv.shards[dst]
		for i := range batch {
			d.At(batch[i].at, batch[i].fn)
			batch[i].fn = nil
		}
		sv.scratch = batch[:0]
	}
}

// nextDeadline returns the earliest pending deadline across shards.
func (sv *ShardedVirtual) nextDeadline() (time.Time, bool) {
	var next time.Time
	ok := false
	for _, s := range sv.shards {
		if d, has := s.NextDeadline(); has && (!ok || d.Before(next)) {
			next, ok = d, true
		}
	}
	return next, ok
}

// runWindow advances every shard to end in parallel, one worker per shard.
// On a single-CPU runtime the goroutine fan-out is skipped: the shards run
// in index order on the coordinator, which is observably identical (each
// window's shard computations are independent by the lookahead argument).
func (sv *ShardedVirtual) runWindow(end time.Time, parallel bool) {
	sv.windowEnd = end
	if !parallel {
		for _, s := range sv.shards {
			s.Run(end)
		}
		return
	}
	var wg sync.WaitGroup
	for _, s := range sv.shards {
		wg.Add(1)
		go func(s *Virtual) {
			defer wg.Done()
			s.Run(end)
		}(s)
	}
	wg.Wait()
}

// Run drives the simulation until no work remains or the next deadline would
// exceed horizon (zero horizon = run until idle), returning the number of
// events fired. Each iteration picks the earliest pending deadline T across
// shards, runs the window [T, T+lookahead] on all shards in parallel, then
// drains the cross-shard mailboxes at the barrier. Windows jump over idle
// gaps: the next window always starts at the next real event. As with
// Virtual.Run, a non-zero horizon is where every shard's clock ends up.
func (sv *ShardedVirtual) Run(horizon time.Time) int {
	sv.drainMail()
	if len(sv.shards) == 1 {
		return sv.shards[0].Run(horizon)
	}
	parallel := parallelWorkers()
	fired0 := sv.totalFired()
	for {
		next, ok := sv.nextDeadline()
		if !ok || (!horizon.IsZero() && next.After(horizon)) {
			break
		}
		end := next.Add(sv.lookahead)
		if !horizon.IsZero() && end.After(horizon) {
			end = horizon
		}
		sv.runWindow(end, parallel)
		sv.rounds++
		sv.drainMail()
	}
	if !horizon.IsZero() {
		sv.runWindow(horizon, false) // nothing left to fire: only the clocks move
	}
	return int(sv.totalFired() - fired0)
}

// RunFor runs the event loop for d of virtual time past the current floor.
func (sv *ShardedVirtual) RunFor(d time.Duration) int { return sv.Run(sv.Now().Add(d)) }

// RunUntilIdle fires every pending event (including newly scheduled ones)
// until all shards drain, then returns the number fired.
func (sv *ShardedVirtual) RunUntilIdle() int { return sv.Run(time.Time{}) }

func (sv *ShardedVirtual) totalFired() uint64 {
	var n uint64
	for _, s := range sv.shards {
		n += s.FiredCount()
	}
	return n
}
