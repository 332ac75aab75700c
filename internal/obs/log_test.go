package obs

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// checkLog fails unless l shows the last limit entries of all (all of them
// when limit is 0): Len, Dropped, a full decode and a decode of the last
// few must all agree with that plain-slice model.
func checkLog(t *testing.T, l *Log, all []Entry, limit int) {
	t.Helper()
	want := all
	if limit > 0 && len(want) > limit {
		want = want[len(want)-limit:]
	}
	if got := l.Len(); got != len(want) {
		t.Fatalf("after %d entries, Len() = %d, want %d", len(all), got, len(want))
	}
	if got := l.dropped(); got != len(all)-len(want) {
		t.Fatalf("after %d entries, dropped() = %d, want %d", len(all), got, len(all)-len(want))
	}
	for _, n := range []int{0, 1, 3} {
		tail := want
		if n > 0 && len(tail) > n {
			tail = tail[len(tail)-n:]
		}
		got := l.Entries(n)
		if len(got) != len(tail) {
			t.Fatalf("after %d entries, Entries(%d) decoded %d, want %d", len(all), n, len(got), len(tail))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], tail[i]) {
				t.Fatalf("after %d entries, Entries(%d) entry %d = %+v, want %+v", len(all), n, i, got[i], tail[i])
			}
		}
	}
}

// randomEntry draws an entry from a small set of streams, notes that repeat
// and notes used once, kinds inside and outside the kinds byte, and
// numerics that keep their prediction, move a little, or sit at the int64
// extremes.
func randomEntry(r *rand.Rand, i int) Entry {
	pick := func(vals ...int64) int64 { return vals[r.IntN(len(vals))] }
	num := func(prev int64) int64 {
		switch r.IntN(4) {
		case 0:
			return prev
		case 1:
			return prev + r.Int64N(50) - 10
		case 2:
			return pick(math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1, 0, -1)
		default:
			return int64(r.Uint64())
		}
	}
	e := Entry{Kind: pick(0, 1, 14, 15, -1, math.MaxInt64), Sub: pick(0, 3, 6, 7, math.MinInt64), Flag: r.IntN(2) == 0}
	if r.IntN(8) != 0 {
		e.Stream = "s" + strconv.Itoa(r.IntN(4))
	}
	switch r.IntN(3) {
	case 0:
		e.Note = "note " + strconv.Itoa(r.IntN(6))
	case 1:
		e.Note = "once " + strconv.Itoa(i) + strings.Repeat("·", r.IntN(40))
	}
	for j := range e.Num {
		e.Num[j] = num(int64(i) * 20)
	}
	return e
}

// TestLogMatchesModel: a log, bounded or not, shows exactly the last limit
// entries of a random sequence after every append: with a limit smaller
// than one chunk holds, with limits a chunk boundary falls inside, and
// unbounded, across chunks that each restart their strings and predictions.
func TestLogMatchesModel(t *testing.T) {
	for _, limit := range []int{0, 1, 3, 50, 700} {
		r := rand.New(rand.NewPCG(1, uint64(limit)))
		l := &Log{limit: limit}
		var all []Entry
		for i := 0; i < 3000; i++ {
			e := randomEntry(r, i)
			l.Append(&e)
			all = append(all, e)
			if limit > 0 || i%97 == 0 {
				checkLog(t, l, all, limit)
			}
		}
		if len(l.chunks) < 2 && limit == 0 {
			t.Fatalf("3000 entries fit one chunk; the test crosses no chunk boundary")
		}
	}
}

// TestLogStringOutlivesItsChunk: a string first named by the last entry of
// a chunk goes when that chunk is freed, and its next use, in the following
// chunk, carries it again.
func TestLogStringOutlivesItsChunk(t *testing.T) {
	const limit = 2
	l := &Log{limit: limit}
	var all []Entry
	straddled, freedAfter := 0, 0
	for i := 0; i < 2000; i++ {
		// Pairs of entries share a note, so a pair split by a chunk
		// boundary names its note last in one chunk and first in the next.
		e := Entry{Stream: "s", Note: "pair " + strconv.Itoa(i/2) + strings.Repeat("-", 30), Num: [numerics]int64{int64(i)}}
		freed := l.n - l.held
		l.Append(&e)
		all = append(all, e)
		if i%2 == 1 && l.chunks[len(l.chunks)-1].n == 1 {
			straddled++
		}
		if straddled > 0 && l.n-l.held > freed {
			freedAfter++
		}
		checkLog(t, l, all, limit)
	}
	if straddled == 0 || freedAfter == 0 {
		t.Fatalf("%d pairs straddled a chunk boundary and %d appends freed a chunk after one; want both > 0", straddled, freedAfter)
	}
}

// TestLogFreesChunks: a bounded log holds at most its limit plus one chunk
// of entries, and reuses the bytes it frees instead of allocating.
func TestLogFreesChunks(t *testing.T) {
	l := &Log{limit: 100}
	e := Entry{Stream: "v", Note: "n"}
	for i := 0; i < 100_000; i++ {
		e.Num[0] = int64(i) * 1e6
		l.Append(&e)
	}
	if len(l.chunks) > 2 {
		t.Fatalf("a log bounded at 100 short entries holds %d chunks", len(l.chunks))
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		e.Num[0] += 1e6
		l.Append(&e)
	})
	if allocs != 0 {
		t.Fatalf("a full bounded log allocates %.2f per append", allocs)
	}
}

// TestTraceRoundTrip: the trace schema brings back every event exactly,
// whether stamped by the virtual clock at either end of its range, the
// wall clock or not at all, and with values at the int64 extremes.
func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace(8)
	want := []Event{
		{At: clock.Epoch, Kind: EvSessionStart, Stream: "sess-1", Value: math.MaxInt64, Note: "connected"},
		{At: clock.Epoch.Add(math.MaxInt64), Kind: EvIllegalInput, Stream: "sess-1", Value: math.MinInt64},
		{At: time.Now(), Kind: EventKind(255), Note: "connected"},
		{Kind: EvFrameDrop, Value: -1},
		{At: clock.Epoch.Add(-time.Hour), Kind: EvSessionEnd, Stream: "sess-1"},
	}
	for _, ev := range want {
		tr.Record(ev)
	}
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.At.Equal(w.At) || g.At.IsZero() != w.At.IsZero() || g.Kind != w.Kind || g.Stream != w.Stream || g.Value != w.Value || g.Note != w.Note {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestTraceBytesPerEvent: NewScope takes no trace space before the first
// Emit, and a server's session events hold at most 24 B of heap per event,
// strings included. Each session has a user of its own, whose start event
// carries the session ID in its note, and a grade change on the lesson's
// video. The bound is on what the trace holds once the events are in; the
// growth of its tables on the way there is garbage.
func TestTraceBytesPerEvent(t *testing.T) {
	clk := clock.NewSim()
	s := NewScope(clk)
	if l := &s.tr.log; l.chunks != nil || l.ids != nil || l.last != nil {
		t.Fatal("NewScope allocated trace space before the first Emit")
	}
	const sessions = DefaultTraceCap / 4
	users, starts := make([]string, sessions), make([]string, sessions)
	for i := range users {
		users[i] = "viewer" + strconv.Itoa(i)
		starts[i] = "session hermes-a-sess-" + strconv.Itoa(i+1)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the pools' victim caches
	runtime.ReadMemStats(&m0)
	for i, user := range users {
		s.Emit(EvSessionStart, user, int64(i+1), starts[i])
		s.Emit(EvAdmissionDecision, user, 1_500_000, "admitted class=standard")
		clk.RunFor(40 * time.Millisecond)
		s.Emit(EvGradeChange, "algorithmsu1v0", 1, "degrade 0→1: loss 18.3% over threshold")
		clk.RunFor(3 * time.Millisecond)
		s.Emit(EvSessionEnd, user, int64(i+1), "client disconnect")
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(users)
	runtime.KeepAlive(starts)
	if n := s.Trace().Len(); n != DefaultTraceCap {
		t.Fatalf("Len() = %d, want %d", n, DefaultTraceCap)
	}
	held := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / DefaultTraceCap
	t.Logf("%.1f B/event held, %.1f B/event allocated", held, float64(m1.TotalAlloc-m0.TotalAlloc)/DefaultTraceCap)
	if held > 24 {
		t.Fatalf("the trace holds %.1f B/event, want ≤ 24", held)
	}
}

// FuzzLogRoundTrip: for any entry sequence and bound the fuzzer spells, the
// log shows exactly what a plain slice of the last limit entries holds.
// The first byte picks the bound (0 for none, else three times its value);
// then each entry is spelled as a stream and a note byte (0 names "", and
// a larger value a longer name, so a few entries fill a chunk), the kinds,
// the flag, six numerics and a repeat count. A numeric's selector byte
// picks a small value, an int64 extreme, eight raw bytes or a multiple of
// 20 ms.
func FuzzLogRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 7})
	f.Add(bytes.Repeat([]byte{0x05, 0x81, 0x42, 0xfe}, 60))
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{200, 250, 1, 5, 0, 9, 1, 1, 1, 1, 1, 1, 7}, 30)...))
	f.Add(append([]byte{0}, bytes.Repeat([]byte{1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 7}, 200)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		extremes := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1 << 40}
		num := func() int64 {
			switch s := next(); s % 4 {
			case 0:
				return int64(int8(next()))
			case 1:
				return extremes[int(s/4)%len(extremes)]
			case 2:
				var v uint64
				for i := 0; i < 8; i++ {
					v = v<<8 | uint64(next())
				}
				return int64(v)
			default:
				return int64(next()) * int64(20*time.Millisecond)
			}
		}
		name := func(prefix string) string {
			if b := next(); b != 0 {
				return prefix + strconv.Itoa(int(b)) + strings.Repeat("x", int(b))
			}
			return ""
		}
		limit := 3 * int(next())
		l := &Log{limit: limit}
		var all []Entry
		for len(data) > 0 {
			e := Entry{Stream: name("s"), Note: name("n"), Kind: num(), Sub: num(), Flag: next()&1 != 0}
			for i := range e.Num {
				e.Num[i] = num()
			}
			for r := next()%8 + 1; r > 0; r-- {
				l.Append(&e)
				all = append(all, e)
			}
		}
		checkLog(t, l, all, limit)
	})
}
