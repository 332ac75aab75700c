package server

import (
	"sort"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

// This file is the media data plane. There is one kind of media server
// process, the flow: it paces one stream's frames according to the flow
// scenario, encodes each frame at its quality level (the media stream quality
// converter in action), fragments it to MTU-sized RTP packets and ships them
// to its subscribers — over RTP/UDP for time-sensitive streams, the reliable
// path for one-shot stills.
//
// A private flow has exactly one subscriber, is never entered in the flow
// registry and reads its level from the subscriber session's QoS manager per
// frame. A registered (shared) flow is the near-broadcast case of the same
// stream (Afrin & Rahaman's quasi harmonic broadcasting applied to the paper's
// lesson service): sessions viewing the same document at the same level ride
// ONE flow — one encode, one packet assembly, N deliveries through the
// transport's multi-destination send — at a level fixed by its registry key,
// and keep a bounded segment cache from which a late joiner is patched back
// to the last GoP start. Options.SharedFlows decides only which of the two a
// document request attaches to.
//
// Each session holds one sender per stream: the handle naming the stream's
// destination and the flow currently serving it. Any per-session divergence
// from a shared flow — pause, suspend, disable, stop, a QoS grade change — is
// one operation, split: the handle leaves the shared flow for a new private
// flow continuing at the shared cursor with forked RTP state (same SSRC,
// contiguous sequence numbers), so the other subscribers never notice. A shared flow tears down when its
// last subscriber leaves. A handle never moves back onto a shared flow.
//
// Lock order (continues the shard.go hierarchy):
//
//	shard.mu → sender.mu → flowRegistry.mu → flow.mu
//
// Control handlers may call sender methods while holding the owning session's
// shard lock; nothing below ever acquires a shard lock. The per-frame emit
// path takes ONLY the flow's own mutex (plus the QoS manager's read lock on a
// private flow), so one stream's pacing never serializes with another's or
// with the control plane. Whatever a flow needs of the server (clock,
// transport, telemetry) it reads from fields immutable after construction.

// pktPool recycles the packet assembly buffers of every flow (RTP header,
// frame header and payload fragment are appended into one pooled buffer per
// packet) and of the server's fire-and-forget control frames. Per the
// netsim.Net ownership rule, Send borrows the buffer only for the duration
// of the call, so it goes straight back to the pool after each Send
// returns.
var pktPool buffer.Pool

// flowKey identifies one registered flow: a document's stream encoded at one
// quality level.
type flowKey struct {
	doc    string
	stream string
	level  int
}

// flowSeg is one cached frame in a registered flow's bounded segment cache.
// It keeps no bytes: a frame's payload is a pure function of the stream,
// the index and the size, so a patch synthesizes it again.
type flowSeg struct {
	idx  int
	pts  time.Duration
	kind media.FrameKind
	size int
}

// segCacheCap bounds the per-flow segment cache. It covers at least one full
// video GoP (12 frames) plus slack, so a late joiner can always be patched
// back to a decodable I-frame boundary within the cache horizon.
const segCacheCap = 16

// flow is one paced stream; see the file header.
type flow struct {
	// Immutable after construction.
	srv    *Server
	stream *scenario.Stream
	src    media.Source
	sendAt time.Duration // flow-scenario transmission lead
	ssrc   uint32
	from   netsim.Addr // precomputed source address (MakeAddr formats)
	emitFn func()      // the emit method value, bound once so re-arms don't allocate
	// grade is a private flow's stream in its subscriber's session manager.
	// It is nil on a registered flow, which encodes at key.level throughout.
	grade *qos.Graded
	key   flowKey

	// mu guards everything below. It is the only lock the per-frame emit
	// path takes.
	mu       sync.Mutex
	rtpS     *rtp.Sender
	origin   time.Time // flow time zero
	nextIdx  int
	timer    *clock.Timer
	paused   bool
	pausedAt time.Time
	// parked marks a pause applied by the suspend machinery, as opposed to
	// one the user requested: only parked flows wake on reattach, so a user
	// pause survives suspend→resume intact.
	parked   bool
	disabled bool
	// finished covers end of stream, a stopped private flow and a registered
	// flow whose last subscriber left.
	finished bool
	subs     []*sender     // sorted by destination
	dests    []netsim.Addr // subs' destinations, the fan-out list

	cache  []flowSeg // registered flows only; slot = idx % segCacheCap
	cacheN int       // frames ever cached
}

// newFlow builds an unarmed private flow serving sn.
func newFlow(srv *Server, sn *sender, src media.Source, sendAt time.Duration, origin time.Time, rtpS *rtp.Sender) *flow {
	fl := &flow{
		srv:    srv,
		stream: sn.stream,
		src:    src,
		sendAt: sendAt,
		ssrc:   rtpS.SSRC,
		from:   netsim.MakeAddr(srv.Name, mediaPort),
		grade:  &sn.grade,
		rtpS:   rtpS,
		origin: origin,
	}
	fl.emitFn = fl.emit
	fl.addSubLocked(sn)
	return fl
}

// shared reports whether the flow is a registered one.
func (fl *flow) shared() bool { return fl.grade == nil }

// sendAtForLocked returns the wall send instant of frame i.
func (fl *flow) sendAtForLocked(i int) time.Time {
	pts := time.Duration(i) * fl.src.FrameInterval()
	return fl.origin.Add(fl.sendAt + pts)
}

// start arms the first frame. A flow that is already pacing (a registered
// flow arms when it is created, before its subscribers' sessions start) is
// left alone: re-arming would reorder its timer against its peers'.
func (fl *flow) start() {
	fl.mu.Lock()
	if fl.timer == nil {
		fl.armLocked()
	}
	fl.mu.Unlock()
}

func (fl *flow) armLocked() {
	if fl.finished || fl.paused || fl.disabled {
		return
	}
	d := fl.sendAtForLocked(fl.nextIdx).Sub(fl.srv.clk.Now())
	if d < 0 {
		d = 0
	}
	// Reuse one timer across the stream's whole life: re-arming with Reset
	// is allocation-free on both clock implementations, and per-frame
	// re-arm is the steady state of the pacing loop.
	if fl.timer == nil {
		fl.timer = fl.srv.clk.AfterFunc(d, fl.emitFn)
	} else {
		fl.timer.Reset(d)
	}
}

func (fl *flow) stopTimerLocked() {
	if fl.timer != nil {
		fl.timer.Stop()
		fl.timer = nil
	}
}

// emit transmits one frame and schedules the next. It runs on the pacing
// timer and holds only the flow's own lock.
func (fl *flow) emit() {
	fl.mu.Lock()
	if fl.emitFrameLocked() {
		fl.armLocked()
	}
	fl.mu.Unlock()
}

// emitFrameLocked encodes the frame at the pacing cursor ONCE, assembles its
// packets ONCE and sends each to every subscriber (or accounts a withheld
// frame), then advances the cursor. It reports whether pacing should
// continue. Caller holds fl.mu; the method touches no server-wide state: a
// private flow's level comes through the QoS manager's own fine-grained lock
// and the packets go straight to the transport.
func (fl *flow) emitFrameLocked() bool {
	if fl.finished || fl.paused || fl.disabled {
		return false
	}
	i := fl.nextIdx
	pts := time.Duration(i) * fl.src.FrameInterval()
	// End of stream?
	if fl.stream.Duration > 0 && pts >= fl.stream.Duration {
		fl.finished = true
		return false
	}
	reliable := !fl.stream.Type.TimeSensitive()
	if reliable && i > 0 {
		// Stills are one-shot.
		fl.finished = true
		return false
	}
	level, stopped := fl.key.level, false
	if !fl.shared() {
		level, stopped = fl.grade.Level()
	}
	fl.nextIdx++
	if stopped {
		// Cut off by the long-term mechanism: withhold the frame but
		// keep pacing so a restore resumes cleanly.
		return true
	}
	// Sampled frame span, hop 1 (emit→wire): wall-clock service time from
	// here to the last fragment handed to the transport. The 1-in-N decision
	// keys on the frame index the wire header carries, so every subscriber's
	// client samples the same frames for the downstream hops — one emit span
	// per encode. Allocation-free: two wall stamps and an atomic histogram
	// observe.
	spanned := fl.srv.spans.Sampled(uint32(i))
	var spanT0 time.Time
	if spanned {
		spanT0 = time.Now()
	}

	frame := fl.src.FrameAt(i, level)
	fl.rtpS.PayloadType = fl.src.PayloadType(level)

	// Frame body: synthesized fragment by fragment straight into the
	// packets, a still's as much as any other frame's.
	var body media.PayloadWriter
	body.Reset(fl.stream.ID, i, frame.Size)
	if fl.cache != nil {
		fl.cacheSegLocked(i, frame)
	}

	// Single-pass packet assembly: RTP header, frame header and payload
	// fragment are appended into one pooled buffer, handed to the transport
	// (which, per the netsim.Net ownership rule, borrows it only for the
	// duration of the send) and immediately recycled.
	fragCount := media.FragmentCount(frame.Size)
	for fi := 0; fi < fragCount; fi++ {
		_, fsize := media.FragmentSpan(frame.Size, fi)
		pb := pktPool.Get(rtp.HeaderSize + media.FrameHeaderSize + fsize)
		buf := fl.rtpS.AppendNext(pb.B[:0], frame.PTS, fi == fragCount-1, media.FrameHeaderSize+fsize)
		hdr := media.FrameHeader{
			Index:     uint32(i),
			Level:     uint8(frame.Level),
			Kind:      frame.Kind,
			Frag:      uint16(fi),
			FragCount: uint16(fragCount),
			FrameSize: uint32(frame.Size),
		}
		buf = body.Append(hdr.AppendTo(buf), fsize)
		pb.B = buf
		pkt := netsim.Packet{From: fl.from, Payload: buf, Reliable: reliable}
		if fl.shared() {
			fl.srv.sendMedia(pkt, fl.dests)
		} else {
			pkt.To = fl.dests[0]
			fl.srv.net.Send(pkt)
		}
		pktPool.Put(pb)
	}
	fl.srv.mFrames.Inc()
	fl.srv.mPackets.Add(int64(fragCount))
	fl.srv.mBytes.Add(int64(frame.Size))
	fl.srv.mDelivered.Add(int64(len(fl.dests)))
	if spanned {
		fl.srv.spans.RecordEmit(fl.stream.ID, time.Since(spanT0))
	}
	return true
}

// sendMedia ships one media packet to every destination: the transport's
// multi-destination fan-out when it has one (cached assertion, one refcounted
// payload copy), a per-destination Send loop otherwise.
func (s *Server) sendMedia(pkt netsim.Packet, tos []netsim.Addr) {
	if s.multi != nil {
		s.multi.SendMulti(pkt, tos)
		return
	}
	for _, to := range tos {
		p := pkt
		p.To = to
		s.net.Send(p)
	}
}

// report builds the flow's RTCP SR, or nil when the flow is inactive. Every
// subscriber's session relays the same SR — correct, since they all receive
// the same SSRC's stream. A private flow falls silent once its stream has
// ended; a registered flow keeps reporting to whoever is still subscribed
// (sessions stay on it until they leave the document), as it always has on
// the wire.
func (fl *flow) report(now time.Time, mediaTime time.Duration) *rtp.SenderReport {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.disabled || fl.rtpS.PacketCount() == 0 || (fl.finished && !fl.shared()) {
		return nil
	}
	return fl.rtpS.Report(now, mediaTime)
}

func (fl *flow) subIndexLocked(sn *sender) int {
	for i, sub := range fl.subs {
		if sub == sn {
			return i
		}
	}
	return -1
}

// addSubLocked subscribes a handle. The fan-out list stays sorted by
// destination for deterministic delivery order under the seeded simulator.
func (fl *flow) addSubLocked(sn *sender) {
	fl.subs = append(fl.subs, sn)
	sort.Slice(fl.subs, func(i, j int) bool { return fl.subs[i].to < fl.subs[j].to })
	fl.rebuildDestsLocked()
}

func (fl *flow) rebuildDestsLocked() {
	fl.dests = fl.dests[:0]
	for _, sub := range fl.subs {
		fl.dests = append(fl.dests, sub.to)
	}
}

// cacheSegLocked records frame idx in its slot of the bounded segment cache.
func (fl *flow) cacheSegLocked(idx int, frame media.Frame) {
	fl.cache[idx%segCacheCap] = flowSeg{idx: idx, pts: frame.PTS, kind: frame.Kind, size: frame.Size}
	fl.cacheN++
}

// flowPatchDelay is how long after a late join the catch-up patch goes on the
// wire: long enough that the DocResponse (reliable, in-order) has reached
// the client and its media listeners are up, short against any playout
// deadline.
const flowPatchDelay = 50 * time.Millisecond

// catchUpLocked builds a late joiner's unicast catch-up patch from the
// segment cache, aligned back to the most recent cached GoP start (I-frame)
// so the first patched frame is decodable. The patch packets reuse the
// original frame indices and timestamps, and synthesize the same payload
// bytes again, with sequence
// numbers immediately below the flow's cursor at attach time — the joiner's
// receiver sees one contiguous sequence range: patch below, live frames
// above, no synthetic loss gap regardless of arrival order. Audio and other
// GoP-free streams return no patch (every frame is independently decodable,
// the joiner just rides the live cursor). The packets are returned, not
// sent: the joiner's handle transmits them after flowPatchDelay so they
// cannot beat the DocResponse to a client that is not yet listening.
func (fl *flow) catchUpLocked() (patch [][]byte, frames int) {
	lo := fl.cacheN - segCacheCap
	if lo < 0 {
		lo = 0
	}
	gop := -1
	for i := fl.cacheN - 1; i >= lo; i-- {
		if fl.cache[i%segCacheCap].kind == media.FrameI {
			gop = i
			break
		}
	}
	if gop < 0 {
		return nil, 0
	}
	totalPkts := 0
	for i := gop; i < fl.cacheN; i++ {
		totalPkts += media.FragmentCount(fl.cache[i%segCacheCap].size)
	}
	seq := fl.rtpS.Seq() - uint16(totalPkts)
	pt := fl.src.PayloadType(fl.key.level)
	var body media.PayloadWriter
	for i := gop; i < fl.cacheN; i++ {
		seg := &fl.cache[i%segCacheCap]
		body.Reset(fl.stream.ID, seg.idx, seg.size)
		fragCount := media.FragmentCount(seg.size)
		for fi := 0; fi < fragCount; fi++ {
			_, fsize := media.FragmentSpan(seg.size, fi)
			buf := make([]byte, 0, rtp.HeaderSize+media.FrameHeaderSize+fsize)
			buf = rtp.AppendHeader(buf, fi == fragCount-1, pt, seq, rtp.ToTimestamp(seg.pts), fl.ssrc)
			seq++
			hdr := media.FrameHeader{
				Index:     uint32(seg.idx),
				Level:     uint8(fl.key.level),
				Kind:      seg.kind,
				Frag:      uint16(fi),
				FragCount: uint16(fragCount),
				FrameSize: uint32(seg.size),
			}
			buf = body.Append(hdr.AppendTo(buf), fsize)
			patch = append(patch, buf)
		}
		frames++
	}
	return patch, frames
}

// flowRegistry indexes the server's live registered flows.
type flowRegistry struct {
	mu    sync.Mutex
	flows map[flowKey]*flow
}

// join subscribes a handle to the key's registered flow, creating and arming
// the flow if none is live (a finished husk is replaced). A late joiner's
// share starts at its catch-up patch, which is returned for the handle to
// send. Caller holds sn.mu.
func (r *flowRegistry) join(srv *Server, key flowKey, src media.Source, sendAt time.Duration, origin time.Time, sn *sender) (fl *flow, patch [][]byte, patchFrames int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	srv.cFlowAttaches.Inc()
	if fl = r.flows[key]; fl != nil {
		fl.mu.Lock()
		if !fl.finished {
			patch, frames := fl.catchUpLocked()
			fl.addSubLocked(sn)
			fl.mu.Unlock()
			return fl, patch, frames
		}
		fl.mu.Unlock()
	}
	if r.flows == nil {
		r.flows = map[flowKey]*flow{}
	}
	fl = newFlow(srv, sn, src, sendAt, origin, rtp.NewSender(srv.nextSSRC.Add(1), src.PayloadType(key.level), 0))
	// Registered: the level is the key's, not the first subscriber's, and
	// late joiners are patched from the segment cache.
	fl.grade, fl.key, fl.cache = nil, key, make([]flowSeg, segCacheCap)
	fl.mu.Lock()
	fl.armLocked()
	fl.mu.Unlock()
	r.flows[key] = fl
	srv.cFlowsCreated.Inc()
	return fl, nil, 0
}

// split takes a subscriber off a registered flow and returns its
// continuation: an unarmed private flow at the shared cursor and schedule,
// with forked RTP state. When the
// last subscriber leaves, the registered flow stops pacing and unregisters —
// one more join for the same key builds a fresh flow. Caller holds sn.mu.
func (r *flowRegistry) split(fl *flow, sn *sender) *flow {
	r.mu.Lock()
	defer r.mu.Unlock()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	p := newFlow(fl.srv, sn, fl.src, fl.sendAt, fl.origin, fl.rtpS.Fork())
	p.nextIdx = fl.nextIdx
	p.finished = fl.finished
	i := fl.subIndexLocked(sn)
	fl.subs = append(fl.subs[:i], fl.subs[i+1:]...)
	fl.rebuildDestsLocked()
	if len(fl.subs) == 0 {
		fl.finished = true
		fl.stopTimerLocked()
		if r.flows[fl.key] == fl {
			delete(r.flows, fl.key)
		}
		fl.srv.cFlowsTorn.Inc()
	}
	fl.srv.cFlowDetaches.Inc()
	return p
}

// sender is a session's handle on one of its document's streams: where the
// stream goes and which flow currently serves it. The control operations live
// here because the ones that make the session diverge must first split the
// handle off a shared flow; each then acts on the handle's own flow under
// that flow's lock, exactly as the pacing timer does.
type sender struct {
	// Immutable after construction.
	stream *scenario.Stream
	grade  qos.Graded // the stream in the session's grading manager
	to     netsim.Addr

	// mu guards the flow pointer and the pending catch-up patch; it is never
	// held across a flow operation other than the registry's join and split.
	mu    sync.Mutex
	fl    *flow
	patch *clock.Timer // pending late-join patch, nil once sent or cancelled
}

// flow returns the flow currently serving the handle.
func (sn *sender) flow() *flow {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.fl
}

// join attaches the handle to the key's registered flow. A late joiner's
// catch-up patch is sent — and only then counted — after flowPatchDelay,
// provided the handle has not stopped the stream by then.
func (sn *sender) join(srv *Server, key flowKey, src media.Source, sendAt time.Duration, origin time.Time) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	fl, patch, frames := srv.flows.join(srv, key, src, sendAt, origin, sn)
	sn.fl = fl
	if len(patch) == 0 {
		return
	}
	sn.patch = srv.clk.AfterFunc(flowPatchDelay, func() {
		sn.mu.Lock()
		due := sn.patch != nil
		sn.patch = nil
		sn.mu.Unlock()
		if !due {
			return
		}
		srv.cFlowCatchup.Add(int64(frames))
		srv.mDelivered.Add(int64(frames))
		for _, buf := range patch {
			srv.net.Send(netsim.Packet{From: fl.from, To: sn.to, Payload: buf})
		}
	})
}

// own returns the handle's flow LOCKED, having first split the handle off a
// shared flow; the caller unlocks it. dropPatch also cancels a pending
// catch-up patch, for stop: the patched frames no longer belong to anything
// the client plays.
func (sn *sender) own(dropPatch bool) *flow {
	sn.mu.Lock()
	if dropPatch && sn.patch != nil {
		sn.patch.Stop()
		sn.patch = nil
	}
	if sn.fl.shared() {
		sn.fl = sn.fl.srv.flows.split(sn.fl, sn)
	}
	fl := sn.fl
	sn.mu.Unlock()
	fl.mu.Lock()
	return fl
}

// start arms the stream's first frame.
func (sn *sender) start() { sn.flow().start() }

// split moves a grade-diverged subscriber onto its own flow, which resumes
// pacing at the shared cursor. No-op on a private flow.
func (sn *sender) split() {
	fl := sn.own(false)
	fl.mu.Unlock()
	fl.start()
}

// pause stops pacing at the user's request.
func (sn *sender) pause() { sn.halt(false) }

// park pauses the stream for a session suspend. Unlike pause it marks the
// flow parked, for unpark to wake on reattach — unless the user had already
// paused it: that flow keeps its original pausedAt (so the eventual user
// resume shifts the origin across the whole stillness) and stays unparked.
func (sn *sender) park() { sn.halt(true) }

// halt is pause and park. No-op once disabled, like armLocked: a disabled
// flow must never record pausedAt or shift its origin again.
func (sn *sender) halt(parked bool) {
	fl := sn.own(false)
	defer fl.mu.Unlock()
	if fl.paused || fl.finished || fl.disabled {
		return
	}
	fl.paused = true
	fl.parked = parked
	fl.pausedAt = fl.srv.clk.Now()
	fl.stopTimerLocked()
}

// resume continues pacing after any pause.
func (sn *sender) resume() { sn.wake(false) }

// unpark resumes only a flow park stopped. One the user paused before the
// suspend stays paused — its pause-shifted origin intact — until the user's
// own resume.
func (sn *sender) unpark() { sn.wake(true) }

// wake is resume and unpark: it shifts the flow origin by the pause length
// so inter-frame spacing is preserved. A shared flow is never paused, so no
// split is needed; no-op once disabled (the symmetric guard to halt).
func (sn *sender) wake(onlyParked bool) {
	fl := sn.flow()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.paused || (onlyParked && !fl.parked) || fl.finished || fl.disabled {
		return
	}
	fl.paused = false
	fl.parked = false
	fl.origin = fl.origin.Add(fl.srv.clk.Now().Sub(fl.pausedAt))
	fl.armLocked()
}

// disable stops the stream permanently (user disabled this media).
func (sn *sender) disable() {
	fl := sn.own(false)
	defer fl.mu.Unlock()
	fl.disabled = true
	fl.stopTimerLocked()
}

// stop tears the stream down.
func (sn *sender) stop() {
	fl := sn.own(true)
	defer fl.mu.Unlock()
	fl.finished = true
	fl.stopTimerLocked()
}

// nominalRate returns the stream's current reservation-relevant rate: zero
// when the stream is cut off, finished or disabled, its per-level codec rate
// otherwise.
func (sn *sender) nominalRate() float64 {
	level, stopped := sn.grade.Level()
	fl := sn.flow()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if stopped || fl.finished || fl.disabled {
		return 0
	}
	return fl.src.Bitrate(level)
}
