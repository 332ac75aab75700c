package clock

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewSim()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvanceMovesTime(t *testing.T) {
	v := NewSim()
	v.RunFor(3 * time.Second)
	if got := v.Since(Epoch); got != 3*time.Second {
		t.Fatalf("Since(Epoch) = %v, want 3s", got)
	}
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	v := NewSim()
	var firedAt time.Time
	v.AfterFunc(250*time.Millisecond, func() { firedAt = v.Now() })
	v.RunFor(200 * time.Millisecond)
	if !firedAt.IsZero() {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	v.RunFor(100 * time.Millisecond)
	want := Epoch.Add(250 * time.Millisecond)
	if !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestAfterFuncZeroAndNegativeDelay(t *testing.T) {
	v := NewSim()
	n := 0
	v.AfterFunc(0, func() { n++ })
	v.AfterFunc(-time.Second, func() { n++ })
	if n != 0 {
		t.Fatal("callbacks must not fire synchronously")
	}
	v.RunUntilIdle()
	if n != 2 {
		t.Fatalf("fired %d callbacks, want 2", n)
	}
	if !v.Now().Equal(Epoch) {
		t.Fatalf("time moved to %v firing immediate timers", v.Now())
	}
}

func TestTimersFireInDeadlineOrderWithFIFOTies(t *testing.T) {
	v := NewSim()
	var order []int
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 0) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
	v.RunUntilIdle()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestStopPreventsFiring(t *testing.T) {
	v := NewSim()
	fired := false
	tm := v.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	v.RunFor(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFiringReportsFalse(t *testing.T) {
	v := NewSim()
	tm := v.AfterFunc(time.Millisecond, func() {})
	v.RunFor(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop() = true after the timer fired")
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	v := NewSim()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, v.Since(Epoch))
		if len(times) < 5 {
			v.AfterFunc(100*time.Millisecond, tick)
		}
	}
	v.AfterFunc(100*time.Millisecond, tick)
	v.RunFor(time.Minute)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, d := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if d != want {
			t.Fatalf("tick %d at %v, want %v", i, d, want)
		}
	}
}

func TestAdvanceFiresNestedTimersWithinSpan(t *testing.T) {
	v := NewSim()
	var at []time.Duration
	v.AfterFunc(10*time.Millisecond, func() {
		at = append(at, v.Since(Epoch))
		v.AfterFunc(5*time.Millisecond, func() {
			at = append(at, v.Since(Epoch))
		})
	})
	v.RunFor(20 * time.Millisecond)
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 15*time.Millisecond {
		t.Fatalf("fired at %v, want [10ms 15ms]", at)
	}
	if got := v.Since(Epoch); got != 20*time.Millisecond {
		t.Fatalf("clock at %v after RunFor, want 20ms", got)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	v := NewSim()
	fired := 0
	v.AfterFunc(time.Second, func() { fired++ })
	v.AfterFunc(3*time.Second, func() { fired++ })
	n := v.Run(Epoch.Add(2 * time.Second))
	if n != 1 || fired != 1 {
		t.Fatalf("Run fired %d (%d observed), want 1", n, fired)
	}
	if got := v.Since(Epoch); got != 2*time.Second {
		t.Fatalf("clock at %v, want horizon 2s", got)
	}
	if v.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", v.Pending())
	}

	// The horizon is also where the clock ends when the queue drains first.
	v = NewSim()
	v.AfterFunc(time.Second, func() {})
	if n := v.Run(Epoch.Add(2 * time.Second)); n != 1 || v.Pending() != 0 {
		t.Fatalf("Run fired %d with %d pending, want 1 and 0", n, v.Pending())
	}
	if got := v.Since(Epoch); got != 2*time.Second {
		t.Fatalf("clock at %v after the queue drained, want horizon 2s", got)
	}
}

// TestTimerAllocs pins the cost of arming: the heap holds its entries by
// value, so AfterFunc allocates exactly the Timer and Reset reuses it.
func TestTimerAllocs(t *testing.T) {
	v := NewSim()
	nop := func() {}
	if got := testing.AllocsPerRun(1000, func() {
		v.AfterFunc(time.Millisecond, nop)
		v.Step()
	}); got != 1 {
		t.Errorf("AfterFunc+Step = %v allocations, want 1", got)
	}
	tm := v.AfterFunc(time.Millisecond, nop)
	if got := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Millisecond)
		v.Step()
	}); got != 0 {
		t.Errorf("Reset+Step = %v allocations, want 0", got)
	}
}

// TestHugeDelayNeverFiresEarly: a deadline past the end of virtual time
// saturates there. However far the clock has advanced, it must never wrap
// around and fire ahead of an ordinary timer.
func TestHugeDelayNeverFiresEarly(t *testing.T) {
	v := NewSim()
	var order []string
	re := v.AfterFunc(time.Second, func() { order = append(order, "reset") })
	v.RunFor(2 * time.Hour)
	v.AfterFunc(math.MaxInt64, func() { order = append(order, "after") })
	re.Reset(math.MaxInt64)
	v.AfterFunc(time.Hour, func() { order = append(order, "hour") })
	if n := v.Pending(); n != 3 {
		t.Fatalf("Pending() = %d, want 3", n)
	}
	v.RunFor(100 * 365 * 24 * time.Hour)
	if len(order) != 2 || order[1] != "hour" || v.Pending() != 2 {
		t.Fatalf("fired %v with %d pending, want [reset hour] and 2", order, v.Pending())
	}
	v.RunUntilIdle()
	if len(order) != 4 || order[2] != "after" || order[3] != "reset" {
		t.Fatalf("fired %v, want [reset hour after reset]", order)
	}
}

// TestConcurrentUseWhileDriven: while one goroutine drives the clock, others
// read it and arm, stop and re-arm shared timers. Now must never go
// backwards on any reader. Run it under -race.
func TestConcurrentUseWhileDriven(t *testing.T) {
	v := NewSim()
	nop := func() {}
	shared := make([]*Timer, 8)
	for i := range shared {
		shared[i] = v.AfterFunc(time.Duration(i+1)*time.Millisecond, nop)
	}
	var pacer *Timer
	pacer = v.AfterFunc(time.Millisecond, func() { pacer.Reset(time.Millisecond) })

	stop, driven := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(driven)
		for {
			v.RunFor(time.Millisecond) // at least once, so the pacer fires
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last, lastSince := v.Now(), v.Since(Epoch)
			for i := 0; i < 2000; i++ {
				now, since := v.Now(), v.Since(Epoch)
				if now.Before(last) || since < lastSince {
					t.Errorf("reader %d: Now went back from %v to %v", g, last, now)
					return
				}
				last, lastSince = now, since
				tm := shared[(g+i)%len(shared)]
				switch i % 3 {
				case 0:
					tm.Reset(time.Duration(i%5) * time.Millisecond)
				case 1:
					tm.Stop()
				case 2:
					v.AfterFunc(time.Millisecond, nop)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-driven
	if v.FiredCount() == 0 {
		t.Fatal("no event fired while driven")
	}
}

func TestStepAdvancesOneEvent(t *testing.T) {
	v := NewSim()
	fired := 0
	v.AfterFunc(time.Second, func() { fired++ })
	v.AfterFunc(2*time.Second, func() { fired++ })
	if !v.Step() || fired != 1 {
		t.Fatalf("first Step fired %d, want 1", fired)
	}
	if !v.Step() || fired != 2 {
		t.Fatalf("second Step fired %d, want 2", fired)
	}
	if v.Step() {
		t.Fatal("Step() = true on empty queue")
	}
}

func TestWallClockBasics(t *testing.T) {
	w := NewWall()
	before := time.Now()
	now := w.Now()
	if now.Before(before) {
		t.Fatal("wall Now went backwards")
	}
	done := make(chan struct{})
	tm := w.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wall AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop() = true after wall timer fired")
	}
}

func TestNilTimerStop(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil Timer Stop() = true")
	}
	if tm.Reset(time.Second) {
		t.Fatal("nil Timer Reset() = true")
	}
}

func TestResetPostponesPendingTimer(t *testing.T) {
	v := NewSim()
	var firedAt []time.Duration
	tm := v.AfterFunc(10*time.Millisecond, func() { firedAt = append(firedAt, v.Since(Epoch)) })
	if !tm.Reset(50 * time.Millisecond) {
		t.Fatal("Reset on a pending timer must report true")
	}
	v.RunFor(20 * time.Millisecond)
	if len(firedAt) != 0 {
		t.Fatalf("superseded deadline fired at %v", firedAt)
	}
	v.RunFor(time.Second)
	if len(firedAt) != 1 || firedAt[0] != 50*time.Millisecond {
		t.Fatalf("fired at %v, want [50ms]", firedAt)
	}
}

func TestResetReArmsFiredTimer(t *testing.T) {
	v := NewSim()
	var firedAt []time.Duration
	var tm *Timer
	tm = v.AfterFunc(10*time.Millisecond, func() { firedAt = append(firedAt, v.Since(Epoch)) })
	v.RunFor(20 * time.Millisecond)
	if tm.Reset(10 * time.Millisecond) {
		t.Fatal("Reset on a fired timer must report false")
	}
	v.RunFor(20 * time.Millisecond)
	if len(firedAt) != 2 || firedAt[0] != 10*time.Millisecond || firedAt[1] != 30*time.Millisecond {
		t.Fatalf("fired at %v, want [10ms 30ms]", firedAt)
	}
}

func TestResetReArmsStoppedTimer(t *testing.T) {
	v := NewSim()
	fired := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { fired++ })
	tm.Stop()
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset on a stopped timer must report false")
	}
	v.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

// TestResetFromOwnCallbackPaces is the pacing-loop pattern the data plane
// relies on: one timer re-armed from inside its own callback must tick
// periodically with no drift and fire exactly once per period.
func TestResetFromOwnCallbackPaces(t *testing.T) {
	v := NewSim()
	var ticks []time.Duration
	var tm *Timer
	tm = v.AfterFunc(100*time.Millisecond, func() {
		ticks = append(ticks, v.Since(Epoch))
		if len(ticks) < 5 {
			tm.Reset(100 * time.Millisecond)
		}
	})
	v.RunFor(time.Minute)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, d := range ticks {
		if want := time.Duration(i+1) * 100 * time.Millisecond; d != want {
			t.Fatalf("tick %d at %v, want %v", i, d, want)
		}
	}
}

// TestResetKeepsFIFOOrdering: a reset timer lands *after* timers already
// scheduled for the same deadline, exactly as a freshly created one would —
// the determinism guarantee simulation replay depends on.
func TestResetKeepsFIFOOrdering(t *testing.T) {
	v := NewSim()
	var order []int
	tm := v.AfterFunc(5*time.Millisecond, func() { order = append(order, 9) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 0) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 1) })
	tm.Reset(20 * time.Millisecond) // same deadline, re-armed last → fires last
	v.RunUntilIdle()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 9 {
		t.Fatalf("order = %v, want [0 1 9]", order)
	}
}

func TestWallTimerReset(t *testing.T) {
	w := NewWall()
	done := make(chan struct{})
	tm := w.AfterFunc(time.Hour, func() { close(done) })
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset on a pending wall timer must report true")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reset wall timer never fired")
	}
}

// Property: for any set of non-negative delays, RunUntilIdle fires all timers
// exactly once and in non-decreasing deadline order.
// TestEveryPacesAndStops runs Every on both clocks. On the virtual clock it
// calls fn once per period and never after stop. On the wall clock, with
// calls due every 100 µs so that one is often in flight when stop runs,
// none starts once stop has returned.
func TestEveryPacesAndStops(t *testing.T) {
	v := NewSim()
	n := 0
	stop := Every(v, time.Second, func() { n++ })
	v.RunFor(3500 * time.Millisecond)
	stop()
	v.RunFor(10 * time.Second)
	if n != 3 || v.Pending() != 0 {
		t.Fatalf("virtual: %d calls, %d timers pending; want 3 calls, none pending", n, v.Pending())
	}
	Every(v, 0, func() { t.Fatal("a non-positive period called fn") })()
	v.RunFor(time.Second)

	for i := 0; i < 20; i++ {
		var mu sync.Mutex
		stopped, late := false, 0
		stop := Every(NewWall(), 100*time.Microsecond, func() {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				late++
			}
		})
		time.Sleep(time.Millisecond)
		stop()
		mu.Lock()
		stopped = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		if late > 0 {
			t.Fatalf("wall: %d calls after stop returned", late)
		}
		mu.Unlock()
	}
}

func TestQuickFiringOrder(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		v := NewSim()
		var fired []time.Duration
		for _, ms := range delaysMS {
			d := time.Duration(ms) * time.Millisecond
			v.AfterFunc(d, func() { fired = append(fired, v.Since(Epoch)) })
		}
		v.RunUntilIdle()
		if len(fired) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkVirtualRun drives the event loop with the workload shape the
// simulator produces: a population of pacing timers that each re-arm
// themselves from their own callback. The hot cost is the per-event pop.
func BenchmarkVirtualRun(b *testing.B) {
	const pacers = 256
	b.ReportAllocs()
	b.ResetTimer()
	fired := 0
	for b.Loop() {
		v := NewSim()
		for i := 0; i < pacers; i++ {
			var tick func()
			var tm *Timer
			period := time.Duration(100+i) * time.Microsecond
			tick = func() {
				fired++
				tm.Reset(period)
			}
			tm = v.AfterFunc(period, tick)
		}
		v.RunFor(20 * time.Millisecond)
	}
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// Property: stopping a random subset of timers fires exactly the complement.
func TestQuickStopSubset(t *testing.T) {
	f := func(delaysMS []uint8, stopMask []bool) bool {
		v := NewSim()
		fired := 0
		var timers []*Timer
		for _, ms := range delaysMS {
			timers = append(timers, v.AfterFunc(time.Duration(ms)*time.Millisecond, func() { fired++ }))
		}
		stopped := 0
		for i, tm := range timers {
			if i < len(stopMask) && stopMask[i] {
				if tm.Stop() {
					stopped++
				}
			}
		}
		v.RunUntilIdle()
		return fired == len(delaysMS)-stopped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
