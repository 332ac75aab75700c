package clock

import (
	"math"
	"slices"
	"testing"
	"time"
)

// firing is one timer callback as observed: which timer, at what virtual
// offset from Epoch.
type firing struct {
	id int
	at time.Duration
}

// refTimer and refClock are the reference model of the scheduler: a plain
// list of timers, where firing means scanning for the minimum (at, seq).
type refTimer struct {
	at, period time.Duration
	seq        uint64
	pending    bool
	left       int // re-arms still to make from its own callback
}

type refClock struct {
	now    time.Duration
	seq    uint64
	fired  uint64
	timers []*refTimer
	log    []firing
}

func (m *refClock) arm(rt *refTimer, d time.Duration) bool {
	was := rt.pending
	m.seq++
	rt.at, rt.seq, rt.pending = m.after(max(d, 0)), m.seq, true
	return was
}

// after returns now+d, saturating at the end of virtual time.
func (m *refClock) after(d time.Duration) time.Duration {
	if at := m.now + d; d <= 0 || at > m.now {
		return at
	}
	return math.MaxInt64
}

// fire mirrors fireNext: fire the earliest due timer, or advance to limit.
func (m *refClock) fire(limit time.Duration, advance bool) bool {
	id := -1
	for i, rt := range m.timers {
		if rt.pending && rt.at <= limit && (id < 0 || rt.at < m.timers[id].at ||
			rt.at == m.timers[id].at && rt.seq < m.timers[id].seq) {
			id = i
		}
	}
	if id < 0 {
		if advance && limit > m.now {
			m.now = limit
		}
		return false
	}
	rt := m.timers[id]
	rt.pending = false
	m.now = max(m.now, rt.at)
	m.fired++
	m.log = append(m.log, firing{id, m.now})
	if rt.left > 0 {
		rt.left--
		m.arm(rt, rt.period)
	}
	return true
}

func (m *refClock) run(limit time.Duration, advance bool) (n int) {
	for m.fire(limit, advance) {
		n++
	}
	return n
}

func (m *refClock) pending() (n int) {
	for _, rt := range m.timers {
		if rt.pending {
			n++
		}
	}
	return n
}

// FuzzSchedulerOrder holds the Virtual clock to a linear-scan reference model
// on generated operation sequences. Each three bytes [op a b] are one
// operation. A delay is int8(x) in the unit op/5%4 picks, so that negative,
// zero and equal deadlines are common: milliseconds; 2^22 ns, whole buckets
// of which 32 span the wheel's window, so deadlines land on its edge; seconds,
// past the window; or a saturating MaxInt64 that ignores x.
//
//	op%5 == 0  AfterFunc(a) for a timer whose callback re-arms itself with
//	           Reset(a) another b%3 times
//	op%5 == 1  Reset timer a with delay b (pending, fired or stopped)
//	op%5 == 2  Stop timer a
//	op%5 == 3  Step
//	op%5 == 4  Run(Now()+a), or Run with a zero horizon when a == 0
//
// After every operation the firing sequence, Now, Pending and FiredCount must
// match the model, and so must each call's result. The committed corpus holds
// the same-deadline FIFO and reset-lands-last cases, deadlines on both sides
// of the window's edge, far timers moving into the wheel behind and ahead of
// ones armed there directly, the wheel wrapping round, and the end of time.
func FuzzSchedulerOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		delay := func(op, x byte) time.Duration {
			switch d := time.Duration(int8(x)); op / 5 % 4 {
			case 1:
				return d << 22
			case 2:
				return d * time.Second
			case 3:
				return math.MaxInt64
			default:
				return d * time.Millisecond
			}
		}
		v, m := NewSim(), &refClock{}
		var timers []*Timer
		var log []firing
		for k := 0; k+3 <= len(data) && k < 3*256; k += 3 {
			op, a, b := data[k]%5, data[k+1], data[k+2]
			switch op {
			case 0:
				id, period, left := len(timers), delay(data[k], a), int(b%3)
				var tm *Timer
				tm = v.AfterFunc(period, func() {
					log = append(log, firing{id, v.Since(Epoch)})
					if left > 0 {
						left--
						tm.Reset(period)
					}
				})
				timers = append(timers, tm)
				rt := &refTimer{period: period, left: left}
				m.timers = append(m.timers, rt)
				m.arm(rt, period)
			case 1, 2:
				if len(timers) == 0 {
					continue
				}
				i := int(a) % len(timers)
				var got, want bool
				if op == 1 {
					got, want = timers[i].Reset(delay(data[k], b)), m.arm(m.timers[i], delay(data[k], b))
				} else {
					got, want = timers[i].Stop(), m.timers[i].pending
					m.timers[i].pending = false
				}
				if got != want {
					t.Fatalf("op %d (%d on timer %d) reported %v, model %v", k/3, op, i, got, want)
				}
			case 3:
				if got, want := v.Step(), m.fire(math.MaxInt64, false); got != want {
					t.Fatalf("op %d: Step() = %v, model %v", k/3, got, want)
				}
			case 4:
				var got, want int
				if a == 0 {
					got, want = v.Run(time.Time{}), m.run(math.MaxInt64, false)
				} else {
					d := delay(data[k], a)
					got, want = v.Run(v.Now().Add(d)), m.run(m.after(d), true)
				}
				if got != want {
					t.Fatalf("op %d: Run fired %d, model %d", k/3, got, want)
				}
			}
			if !slices.Equal(log, m.log) {
				t.Fatalf("op %d: fired\n %v\nmodel\n %v", k/3, log, m.log)
			}
			if got := v.Since(Epoch); got != m.now {
				t.Fatalf("op %d: Now() = Epoch+%v, model Epoch+%v", k/3, got, m.now)
			}
			if got, want := v.Pending(), m.pending(); got != want {
				t.Fatalf("op %d: Pending() = %d, model %d", k/3, got, want)
			}
			if got := v.FiredCount(); got != m.fired {
				t.Fatalf("op %d: FiredCount() = %d, model %d", k/3, got, m.fired)
			}
		}
	})
}
