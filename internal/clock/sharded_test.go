package clock

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// trace records (shard, offset, tag) firing events for replay comparison.
type shardTrace struct {
	mu      sync.Mutex
	entries []string
}

func (tr *shardTrace) add(shard int, off time.Duration, tag string) {
	tr.mu.Lock()
	tr.entries = append(tr.entries, fmt.Sprintf("s%d@%v:%s", shard, off, tag))
	tr.mu.Unlock()
}

// perShard returns the entries grouped by shard in firing order; the global
// interleaving across shards within a window is unordered by design, so
// determinism is asserted per shard.
func (tr *shardTrace) perShard(shards int) []string {
	out := make([]string, shards)
	for _, e := range tr.entries {
		var s int
		fmt.Sscanf(e, "s%d@", &s)
		out[s] += e + ";"
	}
	return out
}

func TestShardedSingleShardMatchesVirtual(t *testing.T) {
	program := func(c Clock, out *[]time.Duration) {
		var tm *Timer
		n := 0
		tm = c.AfterFunc(10*time.Millisecond, func() {
			*out = append(*out, c.Since(Epoch))
			n++
			if n < 5 {
				tm.Reset(10 * time.Millisecond)
			}
		})
		c.AfterFunc(25*time.Millisecond, func() { *out = append(*out, c.Since(Epoch)) })
	}
	var plain, sharded []time.Duration
	v := NewSim()
	program(v, &plain)
	vFired := v.Run(Epoch.Add(time.Second))

	sv := NewShardedSim(1, 5*time.Millisecond)
	program(sv.Shard(0), &sharded)
	sFired := sv.Run(Epoch.Add(time.Second))

	if vFired != sFired {
		t.Fatalf("fired %d events via Virtual, %d via 1-shard ShardedVirtual", vFired, sFired)
	}
	if len(plain) != len(sharded) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plain), len(sharded))
	}
	for i := range plain {
		if plain[i] != sharded[i] {
			t.Fatalf("trace[%d] = %v vs %v", i, plain[i], sharded[i])
		}
	}
	if !v.Now().Equal(sv.Now()) {
		t.Fatalf("clocks diverged: %v vs %v", v.Now(), sv.Now())
	}
}

func TestCrossShardArrivesAtExactDeadline(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	sv := NewShardedSim(2, lookahead)
	var firedAt time.Duration
	// Shard 0 event at t=3ms hands off to shard 1 at t=3ms+lookahead+2ms.
	sv.Shard(0).AfterFunc(3*time.Millisecond, func() {
		at := sv.Shard(0).Now().Add(lookahead + 2*time.Millisecond)
		sv.ScheduleCross(0, 1, at, func() {
			firedAt = sv.Shard(1).Since(Epoch)
		})
	})
	sv.RunUntilIdle()
	if want := 15 * time.Millisecond; firedAt != want {
		t.Fatalf("cross event fired at %v, want %v", firedAt, want)
	}
	if _, clamps, _ := sv.CrossStats(); clamps != 0 {
		t.Fatalf("cross arrival was clamped %d times; lookahead should have been honored", clamps)
	}
}

func TestCrossShardTooEarlyIsClampedNeverPast(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	sv := NewShardedSim(2, lookahead)
	var firedAt, destNowAtFire time.Duration
	sv.Shard(0).AfterFunc(5*time.Millisecond, func() {
		// A violating handoff: only 1ms of latency, less than the lookahead.
		at := sv.Shard(0).Now().Add(time.Millisecond)
		sv.ScheduleCross(0, 1, at, func() {
			firedAt = at.Sub(Epoch)
			destNowAtFire = sv.Shard(1).Since(Epoch)
		})
	})
	sv.RunUntilIdle()
	if _, clamps, _ := sv.CrossStats(); clamps != 1 {
		t.Fatalf("clamps = %d, want 1", clamps)
	}
	if destNowAtFire < firedAt {
		t.Fatalf("cross event fired in the destination's past: dest=%v requested=%v", destNowAtFire, firedAt)
	}
}

func TestShardClocksConvergeAtBarriers(t *testing.T) {
	// After every Run the group has rendezvoused: all shard clocks sit at
	// the same instant, even when the workload was wildly uneven.
	const lookahead = 4 * time.Millisecond
	sv := NewShardedSim(3, lookahead)
	for i := 0; i < 100; i++ {
		for s := 0; s < 3; s++ {
			sv.Shard(s).AfterFunc(time.Duration(i*(s+1))*time.Millisecond, func() {})
		}
	}
	sv.RunUntilIdle()
	t0 := sv.Shard(0).Now()
	for s := 1; s < 3; s++ {
		if !sv.Shard(s).Now().Equal(t0) {
			t.Fatalf("shard %d at %v, shard 0 at %v after idle run", s, sv.Shard(s).Now(), t0)
		}
	}
}

// pingPong builds a deterministic multi-shard workload: every shard runs a
// population of self-re-arming pacers whose callbacks occasionally hand work
// across shards at exactly lookahead+1ms of latency.
func pingPong(sv *ShardedVirtual, tr *shardTrace, pacersPerShard, hops int) {
	lk := sv.Lookahead()
	for s := 0; s < sv.Shards(); s++ {
		s := s
		for p := 0; p < pacersPerShard; p++ {
			p := p
			period := time.Duration(700+13*p+101*s) * time.Microsecond
			n := 0
			var tm *Timer
			var tick func()
			tick = func() {
				n++
				tr.add(s, sv.Shard(s).Since(Epoch), fmt.Sprintf("p%d.%d", p, n))
				if n%5 == 0 && sv.Shards() > 1 {
					dst := (s + 1 + (p+n)%(sv.Shards()-1)) % sv.Shards()
					hop := n
					at := sv.Shard(s).Now().Add(lk + time.Millisecond)
					sv.ScheduleCross(s, dst, at, func() {
						tr.add(dst, sv.Shard(dst).Since(Epoch), fmt.Sprintf("x%d.%d.%d", s, p, hop))
					})
				}
				if n < hops {
					tm.Reset(period)
				}
			}
			tm = sv.Shard(s).AfterFunc(period, tick)
		}
	}
}

func runPingPong(shards, gomaxprocs int) []string {
	old := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(old)
	sv := NewShardedSim(shards, 2*time.Millisecond)
	tr := &shardTrace{}
	pingPong(sv, tr, 8, 40)
	sv.RunUntilIdle()
	return tr.perShard(shards)
}

func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		serial := runPingPong(shards, 1)
		parallel := runPingPong(shards, runtime.NumCPU())
		replay := runPingPong(shards, runtime.NumCPU())
		for s := range serial {
			if serial[s] != parallel[s] {
				t.Fatalf("shards=%d shard %d trace differs between GOMAXPROCS=1 and =%d", shards, s, runtime.NumCPU())
			}
			if parallel[s] != replay[s] {
				t.Fatalf("shards=%d shard %d trace differs between two identical runs", shards, s)
			}
		}
	}
}

func TestShardedRunHorizonAndCounts(t *testing.T) {
	sv := NewShardedSim(3, 5*time.Millisecond)
	fired := 0
	for s := 0; s < 3; s++ {
		s := s
		sv.Shard(s).AfterFunc(time.Duration(s+1)*time.Second, func() { fired++ })
	}
	n := sv.Run(Epoch.Add(2500 * time.Millisecond))
	if n != 2 || fired != 2 {
		t.Fatalf("Run fired %d (%d observed), want 2", n, fired)
	}
	if sv.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", sv.Pending())
	}
	if got := sv.Since(Epoch); got != 2500*time.Millisecond {
		t.Fatalf("floor at %v after horizon run, want 2.5s", got)
	}
	if n := sv.RunUntilIdle(); n != 1 {
		t.Fatalf("RunUntilIdle fired %d, want 1", n)
	}

	// The horizon is also where the floor ends when every shard drains first.
	sv = NewShardedSim(3, 5*time.Millisecond)
	sv.Shard(1).AfterFunc(time.Second, func() {})
	if n := sv.Run(Epoch.Add(2 * time.Second)); n != 1 || sv.Pending() != 0 {
		t.Fatalf("Run fired %d with %d pending, want 1 and 0", n, sv.Pending())
	}
	if got := sv.Since(Epoch); got != 2*time.Second {
		t.Fatalf("floor at %v after the shards drained, want horizon 2s", got)
	}
}

func TestShardedMailboxAccounting(t *testing.T) {
	sv := NewShardedSim(2, time.Millisecond)
	sv.Shard(0).AfterFunc(time.Millisecond, func() {
		at := sv.Shard(0).Now().Add(2 * time.Millisecond)
		for i := 0; i < 6; i++ {
			sv.ScheduleCross(0, 1, at, func() {})
		}
	})
	sv.RunUntilIdle()
	sent, _, rounds := sv.CrossStats()
	if sent != 6 {
		t.Fatalf("cross sent = %d, want 6", sent)
	}
	if rounds == 0 {
		t.Fatal("no barrier rounds recorded")
	}
}

// TestShardedConcurrentTimerOpsRace hammers one driver with cross-goroutine
// AfterFunc/Stop/Reset against running workers; the race gate (make race now
// covers internal/clock) is what this exists for.
func TestShardedConcurrentTimerOpsRace(t *testing.T) {
	sv := NewShardedSim(4, time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Back-pressure: on a loaded host the producers outrun the
				// workers and the heaps grow until the process is killed.
				if sv.Shard(g).Pending() > 256 {
					runtime.Gosched()
					continue
				}
				tm := sv.Shard(g).AfterFunc(time.Duration(1+i%7)*time.Millisecond, func() {})
				if i%3 == 0 {
					tm.Stop()
				} else if i%3 == 1 {
					tm.Reset(time.Duration(1+i%5) * time.Millisecond)
				}
			}
		}()
	}
	for r := 0; r < 50; r++ {
		sv.RunFor(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	sv.RunUntilIdle()
}
