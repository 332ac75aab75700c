// Package playout implements the client's presentation scheduler: the
// component that preprocesses the presentation scenario into per-stream
// playout processes, enforces intra-media deadlines, measures inter-media
// skew within synchronization groups, and applies the paper's short-term
// recovery actions — duplicating frames of a lagging stream and dropping
// frames of a leading or over-buffered stream — before the long-term
// quality-grading mechanism at the server kicks in.
//
// The scheduler is written against clock.Clock, so the same code runs as a
// discrete-event simulation (clock.Virtual) and in real time (clock.Wall).
package playout

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// EventKind classifies playout trace events.
type EventKind int

// Playout event kinds.
const (
	// EvStart marks a stream's playout process starting.
	EvStart EventKind = iota
	// EvPlay is a frame presented on its device.
	EvPlay
	// EvGap is a playout tick that found no data: the previous frame is
	// duplicated to conceal the gap (buffer underflow).
	EvGap
	// EvHold is a deliberate duplication ordered by skew control on a
	// leading stream.
	EvHold
	// EvDrop is a frame discarded by skew or watermark control.
	EvDrop
	// EvLate is a still that missed its appearance deadline.
	EvLate
	// EvStop marks a stream's playout end.
	EvStop
	// EvLink is a timed hyperlink firing.
	EvLink
	// EvPause and EvResume bracket user pauses.
	EvPause
	// EvResume marks presentation resumption.
	EvResume
)

// kindNames names each declared kind.
var kindNames = [...]string{EvStart: "start", EvPlay: "play", EvGap: "gap", EvHold: "hold", EvDrop: "drop",
	EvLate: "late", EvStop: "stop", EvLink: "link", EvPause: "pause", EvResume: "resume"}

func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one entry in the playout trace.
type Event struct {
	// At is the presentation-relative time of the event.
	At time.Duration
	// StreamID is the stream concerned ("" for presentation-level events).
	StreamID string
	// Kind classifies the event.
	Kind EventKind
	// Frame is the access unit involved (plays, drops).
	Frame media.Frame
	// Lateness is how far behind its ideal instant the frame played.
	Lateness time.Duration
	// Note carries free-form detail.
	Note string
}

// Display records playout events — the trace stand-in for the browser's
// rendering surface. It is an unbounded obs.Log under the playout schema:
// StreamID, Kind, the frame's kind as Sub, its marker as Flag, Note, and
// the numerics At, PTS, Index, Size, Level and Lateness in Num[0] to
// Num[5], so At and PTS are predicted one more step of the size they last
// moved and Index one higher. A play that keeps its stream's pace and
// lateness is two bytes. It is safe for concurrent use.
type Display struct {
	log obs.Log
}

// NewDisplay creates an empty display trace.
func NewDisplay() *Display { return &Display{} }

// Record appends an event.
func (d *Display) Record(ev Event) {
	d.log.Append(&obs.Entry{
		Stream: ev.StreamID, Kind: int64(ev.Kind), Sub: int64(ev.Frame.Kind), Flag: ev.Frame.Marker, Note: ev.Note,
		Num: [6]int64{int64(ev.At), int64(ev.Frame.PTS), int64(ev.Frame.Index),
			int64(ev.Frame.Size), int64(ev.Frame.Level), int64(ev.Lateness)},
	})
}

// Len returns how many events were recorded.
func (d *Display) Len() int { return d.log.Len() }

// Events returns a copy of the trace.
func (d *Display) Events() []Event {
	entries := d.log.Entries(0)
	out := make([]Event, len(entries))
	for i, e := range entries {
		out[i] = Event{
			At:       time.Duration(e.Num[0]),
			StreamID: e.Stream,
			Kind:     EventKind(e.Kind),
			Frame: media.Frame{Index: int(e.Num[2]), PTS: time.Duration(e.Num[1]), Kind: media.FrameKind(e.Sub),
				Size: int(e.Num[3]), Marker: e.Flag, Level: int(e.Num[4])},
			Lateness: time.Duration(e.Num[5]),
			Note:     e.Note,
		}
	}
	return out
}

// Options tunes the presentation scheduler.
type Options struct {
	// SkewThreshold is the intermedia skew beyond which short-term
	// recovery acts. Steinmetz-style lip-sync tolerance is ±80 ms.
	SkewThreshold time.Duration
	// EnableSkewControl turns the short-term recovery on.
	EnableSkewControl bool
	// EnableWatermarkControl drops frames when a buffer exceeds its high
	// watermark.
	EnableWatermarkControl bool
	// OnLink is invoked when a timed hyperlink fires.
	OnLink func(scenario.Link)
	// Obs, when set, receives playout counters, a lateness histogram, and
	// deadline-miss/skew-action trace events.
	Obs *obs.Scope
}

const (
	// skewCheckInterval is the skew monitor's period.
	skewCheckInterval = 100 * time.Millisecond
	// stillRetryInterval is how often an unplayed still checks for its data
	// after missing its deadline.
	stillRetryInterval = 50 * time.Millisecond
)

func (o *Options) fill() {
	if o.SkewThreshold <= 0 {
		o.SkewThreshold = 80 * time.Millisecond
	}
}

// streamState is the runtime state of one playout process.
type streamState struct {
	entry *scenario.Entry
	still bool

	started   bool
	done      bool
	lateStill bool

	buf      *buffer.Buffer
	interval time.Duration
	// due is the presentation instant of the tick the ticker is armed for:
	// the stream's start, then each tick's own due instant plus interval,
	// so a tick that runs late on the wall clock does not delay the next.
	due time.Duration
	// mediaPos is the PTS the stream expects to play next.
	mediaPos time.Duration
	// holdTicks orders deliberate duplications (skew control on a leader).
	holdTicks int
	// ticker is the stream's one timer: the next tick of a time-sensitive
	// stream, the next retry of a still whose data is late. step is the
	// function it runs, tick or playStill, bound once in New, and armStepLocked
	// re-arms the timer with Reset.
	ticker *clock.Timer
	step   func()
	// latenessSumMS and latenessMax summarize how late the plays were.
	latenessSumMS float64
	latenessMax   time.Duration
	plays         int
	gaps          int
	holds         int
	drops         int
}

// Player is the presentation scheduler.
type Player struct {
	mu   sync.Mutex
	clk  clock.Clock
	sc   *scenario.Scenario
	sch  *scenario.Schedule
	disp *Display
	opts Options

	origin   time.Time // wall instant of presentation time zero
	started  bool
	finished bool
	paused   bool
	pausedAt time.Duration
	// order holds the stream states in schedule order, groups the sync groups
	// in name order: whatever arms timers or records events for several
	// streams walks these, never a map, so one instant's events repeat. Each
	// stream's timers carry its state, so no step looks a stream up.
	order     []*streamState
	groups    [][]*streamState
	timers    []*clock.Timer
	skewTimer *clock.Timer
	linkFired bool
	// skew samples per sync group (milliseconds).
	skew map[string]*stats.Sample

	// Telemetry (no-ops when Options carried no scope).
	obs       *obs.Scope
	spans     *obs.FrameSpans
	mPlays    *stats.Counter
	mGaps     *stats.Counter
	mHolds    *stats.Counter
	mDrops    *stats.Counter
	hLateness *stats.DurationHistogram
}

// New builds a player over prepared buffers. The schedule must come from
// the same scenario.
func New(clk clock.Clock, sc *scenario.Scenario, sch *scenario.Schedule, bufs *buffer.Set, disp *Display, opts Options) *Player {
	opts.fill()
	p := &Player{
		clk: clk, sc: sc, sch: sch, disp: disp, opts: opts,
		skew:      map[string]*stats.Sample{},
		obs:       opts.Obs,
		spans:     opts.Obs.FrameSpans(),
		mPlays:    opts.Obs.Counter("playout_plays"),
		mGaps:     opts.Obs.Counter("playout_gaps"),
		mHolds:    opts.Obs.Counter("playout_holds"),
		mDrops:    opts.Obs.Counter("playout_drops"),
		hLateness: opts.Obs.Histogram("playout_lateness"),
	}
	for _, e := range sch.Entries {
		b := bufs.Get(e.BufferKey)
		interval := time.Second
		if b != nil {
			interval = b.FrameInterval
		}
		s := &streamState{
			entry:    e,
			buf:      b,
			interval: interval,
			still:    !e.Stream.Type.TimeSensitive(),
		}
		if s.still {
			s.step = func() { p.playStill(s) }
		} else {
			s.step = func() { p.tick(s) }
		}
		p.order = append(p.order, s)
	}
	// A group keeps its scenario member order. One with a member that has
	// no playout process is never fully active, so it is left out.
	for _, members := range sc.SyncGroups() {
		var g []*streamState
		for _, m := range members {
			for _, s := range p.order {
				if s.entry.Stream.ID == m.ID {
					g = append(g, s)
				}
			}
		}
		if len(g) == len(members) {
			p.groups = append(p.groups, g)
		}
	}
	sort.Slice(p.groups, func(i, j int) bool {
		return p.groups[i][0].entry.Stream.SyncGroup < p.groups[j][0].entry.Stream.SyncGroup
	})
	return p
}

// now returns the current presentation-relative time.
func (p *Player) now() time.Duration {
	if p.paused {
		return p.pausedAt
	}
	return p.clk.Since(p.origin)
}

// Now exposes the presentation clock (0 before Start).
func (p *Player) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return 0
	}
	return p.now()
}

// Start begins the presentation at the current instant. The caller is
// responsible for the deliberate initial delay (waiting for buffers to
// fill) before calling Start.
func (p *Player) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	p.origin = p.clk.Now()
	p.armAllLocked(0)
}

// armAllLocked schedules every pending timer from presentation time from.
func (p *Player) armAllLocked(from time.Duration) {
	for _, s := range p.order {
		p.armStreamLocked(s, from)
	}
	if p.sch.HasLinkAt && !p.linkFired && p.sch.LinkAt >= from {
		p.addTimer(p.sch.LinkAt-from, p.fireLink)
	}
	// The monitor always runs so skew is measured even when the recovery
	// actions are disabled (the E2 ablation compares the two). Start and
	// Resume find no timer (cancelTimersLocked drops it); skewCheck re-arms
	// this one with Reset.
	p.skewTimer = p.clk.AfterFunc(skewCheckInterval, p.skewCheck)
}

// addTimer arms a one-shot timer that cancelTimersLocked stops.
func (p *Player) addTimer(d time.Duration, fn func()) {
	t := p.clk.AfterFunc(d, fn)
	p.timers = append(p.timers, t)
}

// armStepLocked arms s.ticker to run s.step after d. It re-arms the one timer
// with Reset and makes a new one only after cancelTimersLocked dropped it.
func (p *Player) armStepLocked(s *streamState, d time.Duration) {
	if s.ticker != nil {
		s.ticker.Reset(d)
		return
	}
	s.ticker = p.clk.AfterFunc(d, s.step)
}

func (p *Player) armStreamLocked(s *streamState, from time.Duration) {
	if s.done {
		return
	}
	if !s.started {
		s.due = max(s.entry.PlayAt, from)
		p.addTimer(s.due-from, func() { p.startStream(s) })
		return
	}
	// Already started: resume ticking / end timers.
	if s.still {
		if !s.done && s.entry.Stream.Duration > 0 {
			p.addTimer(s.entry.EndAt-from, func() { p.stopStream(s) })
		}
		return
	}
	s.due = from + s.interval
	p.armStepLocked(s, s.interval)
	if s.entry.Stream.Duration > 0 {
		p.addTimer(s.entry.EndAt-from, func() { p.stopStream(s) })
	}
}

func (p *Player) startStream(s *streamState) {
	p.mu.Lock()
	if s.started || s.done || p.finished || p.paused {
		p.mu.Unlock()
		return
	}
	s.started = true
	at := p.now()
	p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvStart})
	if s.still {
		p.mu.Unlock()
		p.playStill(s)
		p.mu.Lock()
		if s.entry.Stream.Duration > 0 {
			p.addTimer(s.entry.EndAt-p.now(), func() { p.stopStream(s) })
		}
		p.mu.Unlock()
		return
	}
	if s.entry.Stream.Duration > 0 {
		p.addTimer(s.entry.EndAt-at, func() { p.stopStream(s) })
	}
	p.mu.Unlock()
	p.tick(s)
}

// playStill attempts to present a still (image/text). If its data has not
// arrived it records one EvLate and retries.
func (p *Player) playStill(s *streamState) {
	p.mu.Lock()
	if s.done || p.finished || p.paused {
		p.mu.Unlock()
		return
	}
	id := s.entry.Stream.ID
	it, ok := s.buf.Pop()
	at := p.now()
	ideal := s.entry.PlayAt
	if ok {
		late := at - ideal
		if late < 0 {
			late = 0
		}
		s.plays++
		s.latenessSumMS += float64(late) / float64(time.Millisecond)
		s.latenessMax = max(s.latenessMax, late)
		p.mPlays.Inc()
		p.hLateness.Observe(late)
		p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvPlay, Frame: it.Frame, Lateness: late})
		p.mu.Unlock()
		return
	}
	if !s.lateStill {
		s.lateStill = true
		s.gaps++
		p.mGaps.Inc()
		p.obs.Emit(obs.EvDeadlineMiss, id, 1, "still data not yet arrived")
		p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvLate, Note: "data not yet arrived"})
	}
	p.armStepLocked(s, stillRetryInterval)
	p.mu.Unlock()
}

// tick is one playout-process step for a time-sensitive stream.
func (p *Player) tick(s *streamState) {
	p.mu.Lock()
	if s.done || !s.started || p.finished || p.paused {
		p.mu.Unlock()
		return
	}
	id := s.entry.Stream.ID
	at := p.now()
	if s.holdTicks > 0 {
		// Skew control ordered this leader to hold: replay last frame.
		s.holdTicks--
		s.holds++
		p.mHolds.Inc()
		p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvHold, Note: "skew control hold"})
	} else {
		// Play only the frame that is actually due: a playout slot whose
		// expected frame has not arrived is a gap, concealed by
		// duplicating the previous frame — never papered over by pulling
		// a future frame forward.
		duePTS := at - s.entry.PlayAt
		it, ok := s.buf.PopDue(duePTS)
		if ok {
			ideal := s.entry.PlayAt + it.Frame.PTS
			late := at - ideal
			if late < 0 {
				late = 0
			}
			s.plays++
			s.latenessSumMS += float64(late) / float64(time.Millisecond)
			s.latenessMax = max(s.latenessMax, late)
			s.mediaPos = it.Frame.PTS + s.interval
			p.mPlays.Inc()
			p.hLateness.Observe(late)
			if p.spans.Sampled(uint32(it.Frame.Index)) && !it.ArrivedAt.IsZero() {
				// Deadline slack: how long the frame sat reassembled before
				// its ideal play instant (0 when it arrived late).
				slack := p.origin.Add(ideal).Sub(it.ArrivedAt)
				if slack < 0 {
					slack = 0
				}
				p.spans.RecordSlack(id, slack)
			}
			p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvPlay, Frame: it.Frame, Lateness: late})
		} else {
			// Underflow: conceal with a duplicate; media position holds.
			s.gaps++
			p.mGaps.Inc()
			p.obs.Emit(obs.EvDeadlineMiss, id, 1, "underflow gap")
			p.disp.Record(Event{At: at, StreamID: s.entry.Stream.ID, Kind: EvGap, Frame: it.Frame, Note: "underflow duplicate"})
		}
	}
	// The next tick is due one interval after this one was, not after it ran;
	// on the virtual clock the two are the same instant.
	s.due += s.interval
	p.armStepLocked(s, s.due-at)
	p.mu.Unlock()
}

// stopStream ends one stream's playout.
func (p *Player) stopStream(s *streamState) {
	p.mu.Lock()
	if s.done {
		p.mu.Unlock()
		return
	}
	s.done = true
	s.ticker.Stop()
	p.disp.Record(Event{At: p.now(), StreamID: s.entry.Stream.ID, Kind: EvStop})
	p.mu.Unlock()
}

// fireLink follows the scenario's timed hyperlink and ends the presentation.
func (p *Player) fireLink() {
	p.mu.Lock()
	if p.linkFired || p.finished || p.paused {
		p.mu.Unlock()
		return
	}
	p.linkFired = true
	link := p.sc.NextTimedLink(0)
	at := p.now()
	p.disp.Record(Event{At: at, StreamID: "", Kind: EvLink, Note: link.Target})
	cb := p.opts.OnLink
	p.mu.Unlock()
	if cb != nil && link != nil {
		cb(*link)
	}
	p.Finish()
}

// skewCheck is the periodic buffer/synchronization monitor.
func (p *Player) skewCheck() {
	p.mu.Lock()
	if p.finished || p.paused {
		p.mu.Unlock()
		return
	}
	now := p.now()
	if p.opts.EnableWatermarkControl {
		for _, s := range p.order {
			if s.still || !s.started || s.done || s.buf == nil {
				continue
			}
			id := s.entry.Stream.ID
			if s.buf.AboveHigh() {
				// Trim the stale backlog behind the playout position,
				// never future frames: high occupancy from pre-rolled
				// upcoming data is healthy, accumulated lateness is not.
				due := now - s.entry.PlayAt
				excess := int((s.buf.Occupancy() - s.buf.Window) / s.interval)
				if excess > 0 {
					n, floor := s.buf.DropBefore(due, excess)
					if n > 0 {
						s.drops += n
						if floor > s.mediaPos {
							s.mediaPos = floor
						}
						p.mDrops.Add(int64(n))
						p.obs.Emit(obs.EvFrameDrop, id, int64(n), "watermark trim")
						p.disp.Record(Event{At: now, StreamID: id, Kind: EvDrop,
							Note: fmt.Sprintf("watermark drop ×%d", n)})
					}
				}
			}
		}
	}
	for _, g := range p.groups {
		p.controlGroupLocked(g[0].entry.Stream.SyncGroup, g, now)
	}
	p.skewTimer.Reset(skewCheckInterval)
	p.mu.Unlock()
}

// controlGroupLocked measures the group's pairwise skew and applies the
// short-term actions: the lagging stream drops buffered frames to catch up;
// when it has nothing to drop, the leading stream holds (duplicates).
func (p *Player) controlGroupLocked(group string, members []*streamState, now time.Duration) {
	var lead, lag *streamState
	for _, s := range members {
		if !s.started || s.done {
			return // group not fully active
		}
		if lead == nil || s.mediaPos > lead.mediaPos {
			lead = s
		}
		if lag == nil || s.mediaPos < lag.mediaPos {
			lag = s
		}
	}
	if lead == nil || lag == nil || lead == lag {
		return
	}
	skew := lead.mediaPos - lag.mediaPos
	sample := p.skew[group]
	if sample == nil {
		sample = &stats.Sample{}
		p.skew[group] = sample
	}
	sample.AddDuration(skew)
	if !p.opts.EnableSkewControl || skew <= p.opts.SkewThreshold {
		return
	}
	frames := int(skew / lag.interval)
	if frames < 1 {
		frames = 1
	}
	if lag.buf != nil && lag.buf.Len() > 0 {
		n, floor := lag.buf.Drop(frames)
		lag.drops += n
		if floor > lag.mediaPos {
			lag.mediaPos = floor
		}
		p.mDrops.Add(int64(n))
		if p.obs.Enabled() {
			p.obs.Emit(obs.EvSkewAction, lag.entry.Stream.ID, int64(n),
				fmt.Sprintf("drop to catch up (group %s, skew %v)", group, skew))
		}
		p.disp.Record(Event{At: now, StreamID: lag.entry.Stream.ID, Kind: EvDrop,
			Note: fmt.Sprintf("skew catch-up ×%d (group %s)", n, group)})
		return
	}
	holdFrames := int(skew / lead.interval)
	if holdFrames < 1 {
		holdFrames = 1
	}
	if lead.holdTicks < holdFrames {
		lead.holdTicks = holdFrames
		if p.obs.Enabled() {
			p.obs.Emit(obs.EvSkewAction, lead.entry.Stream.ID, int64(holdFrames),
				fmt.Sprintf("hold to let group %s catch up (skew %v)", group, skew))
		}
		p.disp.Record(Event{At: now, StreamID: lead.entry.Stream.ID, Kind: EvHold,
			Note: fmt.Sprintf("skew hold ×%d (group %s)", holdFrames, group)})
	}
}

// Pause freezes the presentation (user control operation).
func (p *Player) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started || p.paused || p.finished {
		return
	}
	p.pausedAt = p.now()
	p.paused = true
	p.cancelTimersLocked()
	p.disp.Record(Event{At: p.pausedAt, Kind: EvPause})
}

// Resume continues a paused presentation from where it stopped.
func (p *Player) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.paused || p.finished {
		return
	}
	p.paused = false
	p.origin = p.clk.Now().Add(-p.pausedAt)
	p.disp.Record(Event{At: p.pausedAt, Kind: EvResume})
	p.armAllLocked(p.pausedAt)
}

// Finish ends the presentation, stopping every stream.
func (p *Player) Finish() {
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	p.finished = true
	now := p.now()
	p.cancelTimersLocked()
	for _, s := range p.order {
		if s.started && !s.done {
			p.disp.Record(Event{At: now, StreamID: s.entry.Stream.ID, Kind: EvStop})
		}
		s.done = true
	}
	p.mu.Unlock()
}

// Finished reports completion.
func (p *Player) Finished() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.finished
}

func (p *Player) cancelTimersLocked() {
	for _, t := range p.timers {
		t.Stop()
	}
	p.timers = nil
	p.skewTimer.Stop()
	p.skewTimer = nil
	for _, s := range p.order {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// StreamReport summarizes one stream's playout quality.
type StreamReport struct {
	StreamID string
	Plays    int
	Gaps     int
	Holds    int
	Drops    int
	// MeanLatenessMS and MaxLatenessMS summarize play lateness.
	MeanLatenessMS float64
	MaxLatenessMS  float64
	// Expected is the nominal frame count (duration / interval).
	Expected int
}

// Report summarizes the whole presentation.
type Report struct {
	Streams map[string]StreamReport
	// Skew holds per-group skew samples in milliseconds.
	Skew map[string]*stats.Sample
}

// Report builds the quality summary.
func (p *Player) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := Report{Streams: map[string]StreamReport{}, Skew: p.skew}
	for _, s := range p.order {
		id := s.entry.Stream.ID
		expected := 0
		if !s.still && s.interval > 0 && s.entry.Stream.Duration > 0 {
			expected = int(s.entry.Stream.Duration / s.interval)
		} else if s.still {
			expected = 1
		}
		rep.Streams[id] = StreamReport{
			StreamID:       id,
			Plays:          s.plays,
			Gaps:           s.gaps,
			Holds:          s.holds,
			Drops:          s.drops,
			MeanLatenessMS: s.latenessSumMS / float64(max(s.plays, 1)),
			MaxLatenessMS:  float64(s.latenessMax) / float64(time.Millisecond),
			Expected:       expected,
		}
	}
	return rep
}
