package buffer

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/media"
)

func frame(i int, interval time.Duration) Item {
	return Item{Frame: media.Frame{Index: i, PTS: time.Duration(i) * interval, Size: 100}}
}

func newBuf() *Buffer {
	return New(Config{StreamID: "s", FrameInterval: 40 * time.Millisecond, Window: 400 * time.Millisecond})
}

func TestConfigDefaults(t *testing.T) {
	b := New(Config{StreamID: "x"})
	if b.FrameInterval != 40*time.Millisecond || b.Window != time.Second {
		t.Fatalf("defaults: %v %v", b.FrameInterval, b.Window)
	}
	// The high watermark sits at 2×Window = 2s.
	for i := 0; i < 51; i++ {
		n := i * 40 // ms buffered before this push
		if high := n > 2000; b.AboveHigh() != high {
			t.Fatalf("at %dms: AboveHigh = %v, want %v", n, !high, high)
		}
		b.Push(frame(i, b.FrameInterval))
	}
	if !b.AboveHigh() {
		t.Fatal("2040ms buffered is not above the high watermark")
	}
}

func TestPushPopFIFO(t *testing.T) {
	b := newBuf()
	for i := 0; i < 5; i++ {
		if ok, _ := b.Push(frame(i, b.FrameInterval)); !ok {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 5; i++ {
		it, ok := b.Pop()
		if !ok || it.Frame.Index != i {
			t.Fatalf("pop %d = %+v ok=%v", i, it.Frame, ok)
		}
	}
	st := b.Stats()
	if st.Pushed != 5 || st.Popped != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPushReordersByPTS(t *testing.T) {
	b := newBuf()
	for _, i := range []int{3, 0, 2, 1} {
		b.Push(frame(i, b.FrameInterval))
	}
	for i := 0; i < 4; i++ {
		it, _ := b.Pop()
		if it.Frame.Index != i {
			t.Fatalf("order broken at %d: got %d", i, it.Frame.Index)
		}
	}
}

func TestPopEmptyDuplicatesLast(t *testing.T) {
	b := newBuf()
	// Nothing ever played: zero item, no dup.
	it, ok := b.Pop()
	if ok || it != (Item{}) {
		t.Fatalf("empty pop = %+v", it)
	}
	if b.Stats().Underflows != 1 || b.Stats().Duplicated != 0 {
		t.Fatalf("stats = %+v", b.Stats())
	}
	played := frame(0, b.FrameInterval)
	played.ArrivedAt = time.Unix(0, 1e9)
	b.Push(played)
	b.Pop()
	dup, ok := b.Pop()
	if ok || dup.Frame != played.Frame || !dup.ArrivedAt.Equal(played.ArrivedAt) {
		t.Fatalf("dup = %+v ok=%v, want the played %+v", dup, ok, played)
	}
	st := b.Stats()
	if st.Duplicated != 1 || st.Underflows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPushRefusesRepeatedPTS: a second copy of a queued frame — the network
// duplicated it — is refused and counted, wherever it lands in the queue,
// so the frame plays once.
func TestPushRefusesRepeatedPTS(t *testing.T) {
	b := newBuf()
	for _, i := range []int{0, 2, 1, 2, 0, 1, 3} {
		b.Push(frame(i, b.FrameInterval))
	}
	if ok, _ := b.Push(frame(3, b.FrameInterval)); ok {
		t.Fatal("repeated frame accepted")
	}
	if st := b.Stats(); st.Pushed != 4 || st.Repeated != 4 || b.Len() != 4 {
		t.Fatalf("stats = %+v with %d queued, want 4 pushed, 4 repeated, 4 queued", st, b.Len())
	}
	for i := 0; i < 4; i++ {
		if it, ok := b.Pop(); !ok || it.Frame.Index != i {
			t.Fatalf("pop %d = %+v ok=%v", i, it.Frame, ok)
		}
	}
}

func TestStaleRejection(t *testing.T) {
	b := newBuf()
	b.Push(frame(2, b.FrameInterval))
	b.Pop() // floor moves to PTS(2)+interval = 120ms
	if ok, _ := b.Push(frame(1, b.FrameInterval)); ok {
		t.Fatal("stale frame accepted")
	}
	if b.Stats().Stale != 1 {
		t.Fatalf("stale = %d", b.Stats().Stale)
	}
	// Frame at the floor boundary is accepted.
	if ok, _ := b.Push(frame(3, b.FrameInterval)); !ok {
		t.Fatal("fresh frame rejected")
	}
}

func TestOverflowSignal(t *testing.T) {
	b := New(Config{StreamID: "s", FrameInterval: 40 * time.Millisecond, Window: 100 * time.Millisecond})
	overflowAt := -1
	for i := 0; i < 10; i++ {
		_, over := b.Push(frame(i, b.FrameInterval))
		if over && overflowAt < 0 {
			overflowAt = i
		}
	}
	// High WM 2×100ms = 5 frames; the 6th push crosses it.
	if overflowAt != 5 {
		t.Fatalf("overflow at push %d, want 5", overflowAt)
	}
	if !b.AboveHigh() {
		t.Fatal("AboveHigh false")
	}
}

func TestDropAdvancesFloor(t *testing.T) {
	b := newBuf()
	for i := 0; i < 6; i++ {
		b.Push(frame(i, b.FrameInterval))
	}
	n, floor := b.Drop(3)
	if n != 3 {
		t.Fatalf("dropped %d", n)
	}
	if want := 3 * b.FrameInterval; floor != want {
		t.Fatalf("floor = %v, want %v", floor, want)
	}
	it, _ := b.Pop()
	if it.Frame.Index != 3 {
		t.Fatalf("after drop, head = %d", it.Frame.Index)
	}
	// Drop more than queued.
	n, _ = b.Drop(100)
	if n != 2 {
		t.Fatalf("over-drop = %d, want 2", n)
	}
	if b.Stats().Dropped != 5 {
		t.Fatalf("dropped stat = %d", b.Stats().Dropped)
	}
}

func TestOccupancyAndWatermarks(t *testing.T) {
	b := newBuf() // window 400ms, high 800ms
	if b.Filled() {
		t.Fatal("empty buffer state wrong")
	}
	for i := 0; i < 10; i++ { // 400ms
		b.Push(frame(i, b.FrameInterval))
	}
	if b.Occupancy() != 400*time.Millisecond {
		t.Fatalf("occupancy = %v", b.Occupancy())
	}
	if !b.Filled() || b.AboveHigh() {
		t.Fatal("filled state wrong")
	}
	for i := 10; i < 25; i++ { // 1000ms total
		b.Push(frame(i, b.FrameInterval))
	}
	if !b.AboveHigh() {
		t.Fatal("high watermark not detected")
	}
}

func TestComputeWindow(t *testing.T) {
	fi := 40 * time.Millisecond
	// Low jitter: floor of 4 frames.
	if w := ComputeWindow(fi, 10*time.Millisecond, 2); w != 160*time.Millisecond {
		t.Fatalf("low-jitter window = %v", w)
	}
	// High jitter dominates: 2×200 + 40 = 440ms.
	if w := ComputeWindow(fi, 200*time.Millisecond, 2); w != 440*time.Millisecond {
		t.Fatalf("high-jitter window = %v", w)
	}
	// Default safety.
	if w := ComputeWindow(fi, 200*time.Millisecond, 0); w != 440*time.Millisecond {
		t.Fatalf("default-safety window = %v", w)
	}
	// Window grows with jitter.
	last := time.Duration(0)
	for j := time.Duration(0); j <= 500*time.Millisecond; j += 50 * time.Millisecond {
		w := ComputeWindow(fi, j, 2)
		if w < last {
			t.Fatal("window not monotone in jitter")
		}
		last = w
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet()
	b1 := s.Create(Config{StreamID: "a", FrameInterval: 40 * time.Millisecond, Window: 80 * time.Millisecond})
	s.Create(Config{StreamID: "b", FrameInterval: 20 * time.Millisecond, Window: 40 * time.Millisecond})
	if s.Get("a") != b1 || s.Get("zz") != nil {
		t.Fatal("Get wrong")
	}
	all := s.All()
	if len(all) != 2 || all[0].StreamID != "a" || all[1].StreamID != "b" {
		t.Fatalf("All = %v", all)
	}
}

// Property: pops always come out in non-decreasing PTS order regardless of
// push order, and counters balance.
func TestQuickPopOrderAndConservation(t *testing.T) {
	f := func(indices []uint8) bool {
		b := New(Config{StreamID: "q", FrameInterval: time.Millisecond, Window: time.Hour})
		pushed := 0
		for _, i := range indices {
			if ok, _ := b.Push(frame(int(i), time.Millisecond)); ok {
				pushed++
			}
		}
		last := time.Duration(-1)
		popped := 0
		for {
			it, ok := b.Pop()
			if !ok {
				break
			}
			if it.Frame.PTS < last {
				return false
			}
			last = it.Frame.PTS
			popped++
		}
		st := b.Stats()
		return popped == pushed && st.Pushed == pushed && st.Popped == popped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Drop(k) the head PTS is ≥ the floor.
func TestQuickDropFloorInvariant(t *testing.T) {
	f := func(n, k uint8) bool {
		b := New(Config{StreamID: "q", FrameInterval: time.Millisecond, Window: time.Hour})
		for i := 0; i < int(n); i++ {
			b.Push(frame(i, time.Millisecond))
		}
		b.Drop(int(k))
		return len(b.items) == 0 || b.items[0].item().Frame.PTS >= b.floor-b.FrameInterval
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPopDueRespectsDeadline(t *testing.T) {
	b := newBuf()
	b.Push(frame(5, b.FrameInterval)) // PTS 200ms
	// Due position 100ms: the head is a future frame → concealment.
	it, ok := b.PopDue(100 * time.Millisecond)
	if ok {
		t.Fatalf("future frame popped: %+v", it.Frame)
	}
	if b.Stats().Underflows != 1 {
		t.Fatal("future-head pop not counted as underflow")
	}
	// Due position 200ms: now it plays.
	it, ok = b.PopDue(200 * time.Millisecond)
	if !ok || it.Frame.Index != 5 {
		t.Fatalf("due frame not popped: %+v ok=%v", it.Frame, ok)
	}
	// Empty buffer duplicates the last played frame.
	dup, ok := b.PopDue(time.Hour)
	if ok || dup.Frame.Index != 5 {
		t.Fatalf("dup = %+v ok=%v", dup.Frame, ok)
	}
	if b.Stats().Duplicated != 1 {
		t.Fatal("dup not counted")
	}
}

func TestPopDueAdvancesFloor(t *testing.T) {
	b := newBuf()
	b.Push(frame(0, b.FrameInterval))
	b.PopDue(0)
	if b.floor != b.FrameInterval {
		t.Fatalf("floor = %v", b.floor)
	}
}

func TestDropBeforeOnlyDropsStale(t *testing.T) {
	b := newBuf()
	for i := 0; i < 10; i++ {
		b.Push(frame(i, b.FrameInterval))
	}
	// Frames 0..4 have PTS < 200ms; 5..9 are future relative to 200ms.
	n, floor := b.DropBefore(200*time.Millisecond, 100)
	if n != 5 {
		t.Fatalf("dropped %d, want 5", n)
	}
	if floor != 5*b.FrameInterval {
		t.Fatalf("floor = %v", floor)
	}
	if b.Len() != 5 {
		t.Fatalf("remaining = %d", b.Len())
	}
	if it := b.items[0].item(); it.Frame.Index != 5 {
		t.Fatalf("head = %d", it.Frame.Index)
	}
	// A capped drop stops at max.
	n, _ = b.DropBefore(time.Hour, 2)
	if n != 2 {
		t.Fatalf("capped drop = %d", n)
	}
}

// vacatedSlotsZero reports whether every slot of the backing array outside
// the queue is zero, so no popped frame lingers in the array.
func vacatedSlotsZero(b *Buffer) bool {
	front := len(b.base) - cap(b.items)
	for i, s := range b.base {
		if i >= front && i < front+len(b.items) {
			continue
		}
		if s != (slot{}) {
			return false
		}
	}
	return true
}

// TestSteadyPushPopReusesTheArray pins the jitter buffer's steady state: a
// Push + PopDue cycle at constant depth allocates nothing, the backing array
// stops growing, and the slots outside the queue hold zero Items — after
// pops, after DropBefore and after Reset.
func TestSteadyPushPopReusesTheArray(t *testing.T) {
	const depth = 10
	b := New(Config{StreamID: "s", FrameInterval: time.Millisecond, Window: time.Hour})
	next := 0
	push := func() {
		it := frame(next, time.Millisecond)
		it.ArrivedAt = time.Unix(0, int64(next+1)*1e6)
		b.Push(it)
		next++
	}
	cycle := func() {
		push()
		if _, ok := b.PopDue(time.Duration(next-depth) * time.Millisecond); !ok {
			t.Fatalf("frame %d not due", next-depth)
		}
	}
	for i := 0; i < depth-1; i++ {
		push()
	}
	cycle()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Fatalf("Push+PopDue = %v allocations per cycle, want 0", got)
	}
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	if b.Len() != depth-1 || cap(b.base) > 4*depth {
		t.Fatalf("after 10 000 cycles: %d queued, cap %d, want %d queued and cap ≤ %d", b.Len(), cap(b.base), depth-1, 4*depth)
	}
	if !vacatedSlotsZero(b) {
		t.Fatal("a popped slot still holds its frame")
	}
	if n, _ := b.DropBefore(time.Duration(next-2)*time.Millisecond, 100); n != depth-3 {
		t.Fatalf("DropBefore dropped %d, want %d", n, depth-3)
	}
	if !vacatedSlotsZero(b) {
		t.Fatal("a dropped slot still holds its frame")
	}
}

func TestDropBeforeNothingStale(t *testing.T) {
	b := newBuf()
	b.Push(frame(10, b.FrameInterval))
	if n, _ := b.DropBefore(100*time.Millisecond, 5); n != 0 {
		t.Fatalf("dropped future frames: %d", n)
	}
}

// TestBufferSlotCompact: the queue's slot is at most 32 bytes and holds no
// pointer, and an Item at the wire header's limits comes back from it
// unchanged, an unknown arrival included.
func TestBufferSlotCompact(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 32 {
		t.Fatalf("slot is %d B, want ≤ 32", size)
	}
	st := reflect.TypeOf(slot{})
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint32, reflect.Uint8, reflect.Bool:
		default:
			t.Errorf("slot.%s is a %s; a slot holds only integers and flags", f.Name, f.Type)
		}
	}
	for _, it := range []Item{
		{},
		{Frame: media.Frame{Index: math.MaxUint32, PTS: math.MaxInt64, Kind: media.FrameStill,
			Size: math.MaxUint32, Marker: true, Level: math.MaxUint8}, ArrivedAt: time.Unix(0, math.MaxInt64)},
		{Frame: media.Frame{PTS: math.MinInt64, Kind: media.FrameI}, ArrivedAt: time.Unix(0, math.MinInt64)},
		{Frame: media.Frame{Index: 7, PTS: 280 * time.Millisecond, Kind: media.FrameB, Size: 1400, Level: 2},
			ArrivedAt: time.Date(1996, time.August, 6, 9, 0, 1, 5, time.UTC)},
	} {
		got := toSlot(it).item()
		if got.Frame != it.Frame || !got.ArrivedAt.Equal(it.ArrivedAt) || got.ArrivedAt.IsZero() != it.ArrivedAt.IsZero() {
			t.Errorf("%+v came back as %+v", it, got)
		}
	}
}
