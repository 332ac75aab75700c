// Package buffer implements the client-side buffering layer of the paper: a
// "multiple thread queue" with one thread (Buffer) per established media
// connection, each sized by its media time window, with occupancy watermarks
// driving the short-term synchronization actions (frame dropping and
// duplication) described in §4 and in Little & Kao's intermedia skew control
// scheme [LIT 92].
package buffer

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Item is one buffered access unit with its arrival metadata.
type Item struct {
	Frame media.Frame
	// ArrivedAt is the local arrival time (zero when unknown).
	ArrivedAt time.Time
}

// slot is how the queue stores an Item: 32 bytes and no pointers, so a
// late joiner's backlog costs a third of the Items it holds and the
// collector never scans it. Index, size, kind and level have the widths
// the wire's frame header gives them; pts and arrival are nanoseconds, and
// an arrival of 0 means unknown.
type slot struct {
	pts, arrival int64
	index, size  uint32
	kind, level  uint8
	marker       bool
}

// toSlot packs it into a slot.
func toSlot(it Item) slot {
	var arrival int64
	if !it.ArrivedAt.IsZero() {
		arrival = it.ArrivedAt.UnixNano()
	}
	f := it.Frame
	return slot{
		pts: int64(f.PTS), arrival: arrival,
		index: uint32(f.Index), size: uint32(f.Size),
		kind: uint8(f.Kind), level: uint8(f.Level), marker: f.Marker,
	}
}

// item unpacks s.
func (s slot) item() Item {
	it := Item{Frame: media.Frame{
		Index: int(s.index), PTS: time.Duration(s.pts), Kind: media.FrameKind(s.kind),
		Size: int(s.size), Marker: s.marker, Level: int(s.level),
	}}
	if s.arrival != 0 {
		it.ArrivedAt = time.Unix(0, s.arrival)
	}
	return it
}

// Stats aggregates a buffer's lifetime counters.
type Stats struct {
	// Pushed counts frames accepted into the buffer.
	Pushed int
	// Popped counts frames handed to the playout process.
	Popped int
	// Underflows counts Pop calls that found the buffer empty.
	Underflows int
	// Overflows counts Push calls that found occupancy above the high
	// watermark.
	Overflows int
	// Dropped counts frames discarded by skew/watermark control.
	Dropped int
	// Duplicated counts frames replayed to conceal gaps.
	Duplicated int
	// Stale counts frames discarded on arrival because playout had
	// already passed their PTS.
	Stale int
	// Repeated counts frames refused on arrival because a frame with the
	// same PTS was already queued: a copy the network duplicated.
	Repeated int
}

// Buffer is one media stream's receive queue, ordered by PTS. It is safe
// for concurrent use (the real client pushes from a network goroutine while
// the playout process pops).
//
// The queue lives in one backing array of slots that steady playout never
// reallocates: popping advances the front and zeroes the popped slot, and
// when the tail is full Push moves the queued slots down to the front of the
// array before it appends.
type Buffer struct {
	mu sync.Mutex

	// StreamID names the owning stream.
	StreamID string
	// FrameInterval is the nominal inter-frame spacing, used to convert
	// queue length to playback time.
	FrameInterval time.Duration

	// Window is the media time window: the target amount of buffered
	// playback time established by the deliberate initial delay. The
	// high occupancy watermark derives from it: 2×Window.
	Window time.Duration

	// items is the queue, a window onto base, the whole backing array; the
	// slots of base outside the window are zero.
	items, base []slot
	// floor is the PTS below which arriving frames are stale (playout
	// has moved past them).
	floor time.Duration
	// last holds the most recently popped frame for duplication.
	last    slot
	hasLast bool
	stats   Stats

	// Telemetry (no-ops when the Config carried no scope). The registry
	// counters shadow the Stats fields so live dumps see them; the trace
	// records the watermark/drop/duplicate moments themselves.
	obs           *obs.Scope
	mPushed       *stats.Counter
	mStale        *stats.Counter
	mUnderflows   *stats.Counter
	mOverflows    *stats.Counter
	mDuplicated   *stats.Counter
	mDropped      *stats.Counter
	mOccupancyMax *stats.HighWater
}

// Config parameterizes a buffer.
type Config struct {
	StreamID      string
	FrameInterval time.Duration
	Window        time.Duration
	// Obs, when set, receives per-stream counters and watermark events.
	Obs *obs.Scope
}

// New creates a buffer.
func New(cfg Config) *Buffer {
	if cfg.FrameInterval <= 0 {
		cfg.FrameInterval = 40 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	label := func(name string) string {
		if cfg.Obs == nil {
			return "" // a nil scope's instruments are shared no-ops, whatever the name
		}
		return obs.Label(name, "stream", cfg.StreamID)
	}
	return &Buffer{
		StreamID:      cfg.StreamID,
		FrameInterval: cfg.FrameInterval,
		Window:        cfg.Window,
		obs:           cfg.Obs,
		mPushed:       cfg.Obs.Counter(label("buffer_pushed")),
		mStale:        cfg.Obs.Counter(label("buffer_stale")),
		mUnderflows:   cfg.Obs.Counter(label("buffer_underflows")),
		mOverflows:    cfg.Obs.Counter(label("buffer_overflows")),
		mDuplicated:   cfg.Obs.Counter(label("buffer_duplicated")),
		mDropped:      cfg.Obs.Counter(label("buffer_dropped")),
		mOccupancyMax: cfg.Obs.HighWater(label("buffer_occupancy_frames")),
	}
}

// ComputeWindow performs the paper's "statistical calculation at the
// buffer's setup time": the window must cover the expected delay variation
// with a safety factor, and hold at least a few frames.
//
//	window = max(4 × frameInterval, safety × jitterBound + frameInterval)
func ComputeWindow(frameInterval, jitterBound time.Duration, safety float64) time.Duration {
	if safety <= 0 {
		safety = 2
	}
	w := time.Duration(float64(jitterBound)*safety) + frameInterval
	if min := 4 * frameInterval; w < min {
		w = min
	}
	return w
}

// Push inserts a frame in PTS order. Frames whose PTS playout has already
// passed are dropped as stale, and a frame whose PTS is already queued is
// refused as a repeat. It reports whether the frame was accepted, and
// whether occupancy now exceeds the high watermark (overflow signal for the
// monitor).
func (b *Buffer) Push(it Item) (accepted, overflow bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if it.Frame.PTS < b.floor {
		b.stats.Stale++
		b.mStale.Inc()
		b.obs.Emit(obs.EvFrameDrop, b.StreamID, 1, "stale arrival")
		return false, false
	}
	// Insert keeping PTS order (arrivals may be reordered by the network).
	pts := int64(it.Frame.PTS)
	i := sort.Search(len(b.items), func(i int) bool { return b.items[i].pts > pts })
	if i > 0 && b.items[i-1].pts == pts {
		b.stats.Repeated++
		b.obs.Emit(obs.EvFrameDrop, b.StreamID, 1, "repeated arrival")
		return false, false
	}
	if len(b.items) == cap(b.items) {
		// The tail is full: move the queue down over the slots popped off
		// the front, or into a larger array when there are none.
		if len(b.items) == len(b.base) {
			b.base = make([]slot, 2*len(b.base)+4)
		}
		n := copy(b.base, b.items)
		clear(b.base[n:])
		b.items = b.base[:n]
	}
	b.items = append(b.items, slot{})
	copy(b.items[i+1:], b.items[i:])
	b.items[i] = toSlot(it)
	b.stats.Pushed++
	b.mPushed.Inc()
	b.mOccupancyMax.Observe(int64(len(b.items)))
	if b.occupancyLocked() > b.highWM() {
		b.stats.Overflows++
		b.mOverflows.Inc()
		b.obs.Emit(obs.EvBufferWatermark, b.StreamID,
			int64(b.occupancyLocked()/time.Millisecond), "above high watermark")
		return true, true
	}
	return true, false
}

// Pop removes and returns the earliest frame. When the buffer is empty it
// returns the last played frame as a duplicate (ok=false, dup counted) —
// the paper's gap-concealment action — or a zero Item when nothing was ever
// played.
func (b *Buffer) Pop() (Item, bool) { return b.PopDue(math.MaxInt64) }

// underflowLocked counts a Pop that found nothing playable.
func (b *Buffer) underflowLocked() {
	b.stats.Underflows++
	b.mUnderflows.Inc()
	b.obs.Emit(obs.EvBufferWatermark, b.StreamID, 0, "underflow")
}

// duplicateLocked counts a gap concealed by replaying the last frame.
func (b *Buffer) duplicateLocked() {
	b.stats.Duplicated++
	b.mDuplicated.Inc()
	b.obs.Emit(obs.EvFrameDuplicate, b.StreamID, 1, "gap concealment")
}

// PopDue removes and returns the earliest frame only if its PTS is due
// (≤ maxPTS). When the buffer is empty or its head is a future frame — the
// expected frame is missing or late — it behaves like an underflow: the last
// played frame is returned as a concealment duplicate (ok=false).
func (b *Buffer) PopDue(maxPTS time.Duration) (Item, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 || time.Duration(b.items[0].pts) > maxPTS {
		b.underflowLocked()
		if b.hasLast {
			b.duplicateLocked()
			return b.last.item(), false
		}
		return Item{}, false
	}
	s := b.popFrontLocked()
	b.stats.Popped++
	b.last = s
	b.hasLast = true
	if pts := time.Duration(s.pts) + b.FrameInterval; pts > b.floor {
		b.floor = pts
	}
	return s.item(), true
}

// popFrontLocked removes and returns the earliest slot, zeroing it. The
// queue must not be empty.
func (b *Buffer) popFrontLocked() slot {
	s := b.items[0]
	b.items[0] = slot{}
	b.items = b.items[1:]
	return s
}

// Drop discards up to n earliest frames (skew-control action on a leading
// or over-full stream) and returns how many were discarded and the PTS
// floor after the drop.
func (b *Buffer) Drop(n int) (dropped int, newFloor time.Duration) {
	return b.DropBefore(math.MaxInt64, n)
}

// DropBefore discards up to max earliest frames whose PTS is strictly below
// pts — the stale backlog behind the playout position. Unlike Drop it never
// touches future frames, so the monitor can trim accumulated lateness
// without starving upcoming playout slots.
func (b *Buffer) DropBefore(pts time.Duration, max int) (dropped int, newFloor time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for dropped < max && len(b.items) > 0 && time.Duration(b.items[0].pts) < pts {
		s := b.popFrontLocked()
		dropped++
		b.stats.Dropped++
		b.mDropped.Inc()
		if f := time.Duration(s.pts) + b.FrameInterval; f > b.floor {
			b.floor = f
		}
	}
	return dropped, b.floor
}

// Len returns the queued frame count.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// Occupancy returns the buffered playback time: queued frames × interval.
func (b *Buffer) Occupancy() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.occupancyLocked()
}

func (b *Buffer) occupancyLocked() time.Duration {
	return time.Duration(len(b.items)) * b.FrameInterval
}

// AboveHigh reports occupancy over the high watermark.
func (b *Buffer) AboveHigh() bool { return b.Occupancy() > b.highWM() }

func (b *Buffer) highWM() time.Duration { return 2 * b.Window }

// Filled reports whether the buffer holds at least its media time window of
// data — the presentation-start criterion after the deliberate initial
// delay.
func (b *Buffer) Filled() bool { return b.Occupancy() >= b.Window }

// Stats returns a snapshot of the counters.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Set is the client's collection of per-stream buffers — the "multiple
// thread queue" of the paper, one thread per media connection.
type Set struct {
	mu   sync.Mutex
	bufs map[string]*Buffer
}

// NewSet creates an empty buffer set.
func NewSet() *Set { return &Set{bufs: map[string]*Buffer{}} }

// Create adds a buffer for a stream, replacing any previous one.
func (s *Set) Create(cfg Config) *Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := New(cfg)
	s.bufs[cfg.StreamID] = b
	return b
}

// Get returns the stream's buffer, or nil.
func (s *Set) Get(id string) *Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bufs[id]
}

// All returns the buffers in deterministic (stream id) order.
func (s *Set) All() []*Buffer {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.bufs))
	for id := range s.bufs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Buffer, len(ids))
	for i, id := range ids {
		out[i] = s.bufs[id]
	}
	return out
}
