package server

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// This file is the data-plane load harness: it stands up one server with N
// sessions playing a multi-stream document and measures the media emit path
// in two phases. The paced phase drives the virtual clock so every flow
// fires on its flow-scenario timer, and samples the control-plane lock
// meters (summed across shards) across the window to prove per-frame
// emission never touches a shard's write lock. The
// pump phase drives each flow back-to-back from its own goroutine against
// a counting sink transport, measuring genuine parallel throughput and the
// per-frame emit service time whose tail is the pacing-jitter bound: a frame
// cannot leave more than one service time late because of lock contention.

// pacedWindow is how much virtual time the paced phase advances: under the
// 5 s RTCP sender-report period, so the window contains nothing but media
// pacing.
const pacedWindow = 4 * time.Second

// DataPlaneConfig sizes one load run.
type DataPlaneConfig struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// FramesPerSender bounds the pump phase's frames per time-sensitive
	// flow.
	FramesPerSender int
	// SharedFlows turns on shared-flow fan-out: the sessions all view the
	// same document, so they ride one paced flow per stream (one encode, N
	// deliveries).
	SharedFlows bool
}

func (c *DataPlaneConfig) fill() {
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.FramesPerSender <= 0 {
		c.FramesPerSender = 200
	}
}

// DataPlaneResult is one load run's measurement.
type DataPlaneResult struct {
	Sessions int
	Senders  int

	// Paced phase: virtual-clock pacing over pacedWindow.
	PacedFrames   int64
	PacedLockAcqs int64 // shard write-lock acquisitions during pacing; must be 0

	// Allocation footprint (runtime.MemStats deltas over each phase divided
	// by its frames). The steady-state emit path is pooled and append-style,
	// so the paced numbers must stay at (amortized) zero — the regression
	// test pins them.
	PacedAllocsPerFrame     float64
	PacedAllocBytesPerFrame float64
	PumpAllocsPerFrame      float64
	PumpAllocBytesPerFrame  float64

	// Pump phase: parallel full-rate emission, one goroutine per flow.
	PumpFrames    int64
	PumpPackets   int64
	PumpBytes     int64
	ElapsedMicros int64
	FramesPerSec  float64

	// Emit service time distribution (µs). The p95 is the send-jitter
	// bound: no frame can start later than one service time behind its
	// timer because of another stream's lock.
	EmitP50Micros float64
	EmitP95Micros float64
	EmitMaxMicros float64

	// Whole-run control-plane lock pressure.
	LockAcqsTotal  int64
	LockHeldMicros int64

	// Frame-span emit→wire hop (µs), from the 1-in-SpanSampleEvery sampled
	// frames.
	SpanSampleEvery int
	SpanFrames      int64
	EmitToWireP50   float64
	EmitToWireP95   float64
	EmitToWireP99   float64
	EmitToWireMax   float64

	// Shared-flow fan-out. Encodes count frames encoded+assembled once;
	// delivered counts frames × subscribers actually fanned out. Both are
	// restricted to the time-sensitive (audio/video) streams — the
	// sustained data plane — so still-image page loads don't blur the
	// one-encode-N-deliveries ratio. Without shared flows the two are
	// equal; with them, encodes stay flat as viewers of the same document
	// grow while delivered scales with the viewer count.
	Flows              int
	MaxFlowSubscribers int
	PacedEncodes       int64
	PacedDelivered     int64
	PumpEncodes        int64
	PumpDelivered      int64
	EncodesPerSec      float64
	DeliveredPerSec    float64
}

// sinkNet is the harness transport: a netsim.Net whose Send costs two atomic
// adds. Packets addressed to a registered listener (the server's control
// port) are delivered synchronously; everything else — the media flood — is
// only counted, so the measurement isolates the server's emit path from any
// simulated network behavior.
type sinkNet struct {
	mu       sync.RWMutex
	handlers map[netsim.Addr]netsim.Handler
	packets  atomic.Int64
	bytes    atomic.Int64
}

func newSinkNet() *sinkNet {
	return &sinkNet{handlers: map[netsim.Addr]netsim.Handler{}}
}

func (n *sinkNet) Listen(a netsim.Addr, h netsim.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.handlers, a)
	} else {
		n.handlers[a] = h
	}
	return nil
}

func (n *sinkNet) Send(p netsim.Packet) error {
	n.packets.Add(1)
	n.bytes.Add(int64(len(p.Payload)))
	n.mu.RLock()
	h := n.handlers[p.To]
	n.mu.RUnlock()
	if h != nil {
		h(p)
	}
	return nil
}

// SendMulti implements netsim.MultiSender so the shared-flow fan-out path is
// exercised end to end: the packet is assembled once and each destination
// costs only the counting here — no per-destination copy, no allocation.
func (n *sinkNet) SendMulti(p netsim.Packet, tos []netsim.Addr) error {
	n.packets.Add(int64(len(tos)))
	n.bytes.Add(int64(len(p.Payload)) * int64(len(tos)))
	return nil
}

// RunDataPlaneLoad stands up a server with cfg.Sessions sessions playing a
// two-slide lesson (per slide: one still image plus a synchronized audio and
// video pair, so every session carries multiple concurrent streams) and
// measures the data plane as described above.
func RunDataPlaneLoad(cfg DataPlaneConfig) (DataPlaneResult, error) {
	cfg.fill()
	var res DataPlaneResult
	res.Sessions = cfg.Sessions

	clk := clock.NewSim()
	net := newSinkNet()
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "bench", Password: "pw", Email: "bench@load", Class: qos.Standard,
	}, clk.Now()); err != nil {
		return res, err
	}
	db := NewDatabase()
	if err := db.Put("lesson", hml.LessonSource("bench", 2, time.Minute), "load doc"); err != nil {
		return res, err
	}
	// Telemetry is on: the alloc and lock tests prove the sampled span
	// instrumentation rides the emit path for free.
	scope := obs.NewScope(clk)
	srv, err := New("srv", clk, net, users, db, Options{
		Capacity:    1e12, // admission must not cap the fleet
		Obs:         scope,
		SharedFlows: cfg.SharedFlows,
	})
	if err != nil {
		return res, err
	}

	// Stand up the sessions through the real control plane.
	for i := 0; i < cfg.Sessions; i++ {
		client := netsim.MakeAddr(fmt.Sprintf("load%d", i), 6000)
		net.Send(netsim.Packet{
			From: client, To: netsim.MakeAddr("srv", ControlPort),
			Payload:  protocol.MustEncode(protocol.MsgConnect, protocol.Connect{User: "bench", Password: "pw"}),
			Reliable: true,
		})
		net.Send(netsim.Packet{
			From: client, To: netsim.MakeAddr("srv", ControlPort),
			Payload:  protocol.MustEncode(protocol.MsgDocRequest, protocol.DocRequest{Name: "lesson"}),
			Reliable: true,
		})
	}
	if got := srv.Sessions(); got != cfg.Sessions {
		return res, fmt.Errorf("dataplane: %d sessions stood up, want %d", got, cfg.Sessions)
	}

	// Collect the flows behind the sessions' streams: one per stream when
	// every session paces privately, one per document stream when sessions
	// share. Time-sensitive ones are the sustained load; the stills finish
	// after their single frame.
	var all, ts []*flow
	seen := map[*flow]bool{}
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			for _, snd := range sess.senders {
				res.Senders++
				fl := snd.flow()
				if seen[fl] {
					continue
				}
				seen[fl] = true
				all = append(all, fl)
				if fl.stream.Type.TimeSensitive() {
					ts = append(ts, fl)
				}
				if fl.shared() {
					res.Flows++
					fl.mu.Lock()
					if n := len(fl.subs); n > res.MaxFlowSubscribers {
						res.MaxFlowSubscribers = n
					}
					fl.mu.Unlock()
				}
			}
		}
		sh.mu.Unlock()
	}

	// sumStats totals what the subscribers were sent: every flow's frames,
	// packets and bytes once per subscriber (the subscriber sets are fixed
	// from here on). sumEncodes counts the time-sensitive frames encoded and
	// assembled — one per flow frame however many subscribers it reached —
	// and the same frames once per subscriber; the two are equal when nothing
	// is shared.
	sumStats := func() (frames, packets int64, bytes int64) {
		for _, fl := range all {
			fl.mu.Lock()
			n := int64(len(fl.subs))
			frames += fl.delivered
			packets += int64(fl.packets) * n
			bytes += fl.bytes * n
			fl.mu.Unlock()
		}
		return
	}
	sumEncodes := func() (encodes, delivered int64) {
		for _, fl := range ts {
			fl.mu.Lock()
			encodes += int64(fl.frames)
			delivered += fl.delivered
			fl.mu.Unlock()
		}
		return
	}

	// memDelta samples the process-wide allocation counters around fn. The
	// harness is the only thing running, so the delta is the phase's own
	// footprint (plus the constant cost of the sampling itself, amortized
	// over thousands of frames).
	memDelta := func(fn func()) (mallocs, bytes int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
	}

	// Paced phase: advance the virtual clock and let the flow-scenario
	// timers emit. Everything that fires in this window is a flow timer,
	// so the lock-meter delta is exactly the emit path's shard-lock footprint —
	// and the allocation delta is the pacing loop's footprint.
	preFrames, _, _ := sumStats()
	preEncodes, preDelivered := sumEncodes()
	preAcqs, _ := srv.LockStats()
	pacedMallocs, pacedBytes := memDelta(func() { clk.RunFor(pacedWindow) })
	postAcqs, _ := srv.LockStats()
	pacedFrames, _, _ := sumStats()
	res.PacedFrames = pacedFrames - preFrames
	res.PacedLockAcqs = postAcqs - preAcqs
	res.PacedEncodes, res.PacedDelivered = sumEncodes()
	res.PacedEncodes -= preEncodes
	res.PacedDelivered -= preDelivered
	if res.PacedFrames > 0 {
		// PacedFrames already counts per-subscriber deliveries, so this IS
		// allocations per delivered frame — the fan-out gate divides the one
		// shared assembly across every subscriber it reached.
		res.PacedAllocsPerFrame = float64(pacedMallocs) / float64(res.PacedFrames)
		res.PacedAllocBytesPerFrame = float64(pacedBytes) / float64(res.PacedFrames)
	}

	// Pump phase: every flow emits back-to-back from its own goroutine. A
	// shared flow pumps once for all of its subscribers — that's the point.
	pumpStartFrames, pumpStartPackets, pumpStartBytes := sumStats()
	pumpStartEncodes, pumpStartDelivered := sumEncodes()
	times := make([][]time.Duration, len(all))
	var wg sync.WaitGroup
	var elapsed time.Duration
	pumpMallocs, pumpAllocBytes := memDelta(func() {
		t0 := time.Now()
		for i, fl := range all {
			wg.Add(1)
			go func(i int, fl *flow) {
				defer wg.Done()
				times[i] = fl.pump(cfg.FramesPerSender)
			}(i, fl)
		}
		wg.Wait()
		elapsed = time.Since(t0)
	})
	pumpFrames, pumpPackets, pumpBytes := sumStats()
	res.PumpFrames = pumpFrames - pumpStartFrames
	res.PumpPackets = pumpPackets - pumpStartPackets
	res.PumpBytes = pumpBytes - pumpStartBytes
	res.PumpEncodes, res.PumpDelivered = sumEncodes()
	res.PumpEncodes -= pumpStartEncodes
	res.PumpDelivered -= pumpStartDelivered
	res.ElapsedMicros = elapsed.Microseconds()
	if elapsed > 0 {
		res.FramesPerSec = float64(res.PumpFrames) / elapsed.Seconds()
		res.EncodesPerSec = float64(res.PumpEncodes) / elapsed.Seconds()
		res.DeliveredPerSec = float64(res.PumpDelivered) / elapsed.Seconds()
	}
	if res.PumpFrames > 0 {
		res.PumpAllocsPerFrame = float64(pumpMallocs) / float64(res.PumpFrames)
		res.PumpAllocBytesPerFrame = float64(pumpAllocBytes) / float64(res.PumpFrames)
	}

	var flat []time.Duration
	for _, ts := range times {
		flat = append(flat, ts...)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if n := len(flat); n > 0 {
		res.EmitP50Micros = us(flat[n/2])
		res.EmitP95Micros = us(flat[n*95/100])
		res.EmitMaxMicros = us(flat[n-1])
	}

	acqs, held := srv.LockStats()
	res.LockAcqsTotal = acqs
	res.LockHeldMicros = held.Microseconds()

	h := scope.FrameSpans().EmitToWire()
	res.SpanSampleEvery = int(scope.FrameSpans().SampleEvery())
	res.SpanFrames = h.N()
	res.EmitToWireP50 = us(h.P50())
	res.EmitToWireP95 = us(h.P95())
	res.EmitToWireP99 = us(h.P99())
	res.EmitToWireMax = us(h.Max())
	return res, nil
}

// pump emits up to n frames back-to-back, bypassing the pacing timer: the
// data-plane load harness's way of driving a flow at full rate from its own
// goroutine. It returns per-frame emit service times.
func (fl *flow) pump(n int) []time.Duration {
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fl.mu.Lock()
		more := fl.emitFrameLocked()
		fl.mu.Unlock()
		times = append(times, time.Since(t0))
		if !more {
			break
		}
	}
	return times
}
