package main

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// The isolated block times direct calls into layers the interposers cannot
// separate: they run inside some other layer's span (the codecs inside
// server.ctrl, RTP parsing inside client.media, …). Each figure is host
// nanoseconds per call over at least microMin of calling.

const microMin = 200 * time.Millisecond

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// perOp calls op in growing batches until microMin has passed and returns
// nanoseconds per call.
func perOp(op func()) float64 {
	op() // lazy set-up is not what is measured
	var calls int
	var spent time.Duration
	for batch := 64; spent < microMin; batch *= 2 {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		spent += time.Since(start)
		calls += batch
	}
	return float64(spent.Nanoseconds()) / float64(calls)
}

type microResult struct {
	nsOp  float64
	notes string
}

// microNames lists the isolated metrics in report order.
var microNames = []string{
	"protocol.encode_ns", "protocol.decode_ns", "protocol.ticket_ns",
	"rtp.append_ns", "rtp.unmarshal_ns", "media.frame_ns", "buffer.pushpop_ns",
	"hml.parse_ns", "scenario.build_ns", "qos.admit_ns", "clock.event_ns",
	"transport.loopback_ns",
}

func runMicro(base []lesson) (map[string]microResult, error) {
	out := map[string]microResult{}
	put := func(name string, ns float64, notes string) {
		out[name] = microResult{nsOp: ns, notes: notes}
	}
	// A measured call that fails is a broken product, not a slow one: the
	// first failure is kept and returned once the block is through.
	var failed error
	fail := func(what string, err error) {
		if err != nil && failed == nil {
			failed = fmt.Errorf("%s: %w", what, err)
		}
	}

	// protocol: the two messages that dominate the control plane.
	connect := protocol.Connect{User: "user-v0001", Password: "pw", PeakRate: peakRate, MinRate: minRate}
	beat := protocol.Heartbeat{SessionID: "srv1-sess-1"}
	put("protocol.encode_ns", perOp(func() {
		a, _ := protocol.EncodeReq(protocol.MsgConnect, 7, connect)
		b, _ := protocol.EncodeReq(protocol.MsgHeartbeat, 8, beat)
		sink += len(a) + len(b)
	})/2, "Connect and Heartbeat via EncodeReq, per message")
	cf := protocol.MustEncodeReq(protocol.MsgConnect, 7, connect)
	hf := protocol.MustEncodeReq(protocol.MsgHeartbeat, 8, beat)
	put("protocol.decode_ns", perOp(func() {
		var c protocol.Connect
		var h protocol.Heartbeat
		_, _, body, err := protocol.DecodeReq(cf)
		if err == nil {
			err = protocol.DecodeBody(body, &c)
		}
		if err == nil {
			_, _, body, err = protocol.DecodeReq(hf)
		}
		if err == nil {
			err = protocol.DecodeBody(body, &h)
		}
		fail("protocol round trip", err)
		sink += len(c.User) + len(h.SessionID)
	})/2, "DecodeReq+DecodeBody of the same two, per message")
	key := []byte("hermes-federation-key")
	now := clock.Epoch
	put("protocol.ticket_ns", perOp(func() {
		t := protocol.HandoffTicket{User: "user-v0001", Doc: "sync-basics", From: "srv1", Target: "srv3",
			ExpiresUnixMilli: now.Add(time.Minute).UnixMilli()}
		t.Sign(key)
		fail("handoff ticket", t.Verify(key, now))
	}), "HandoffTicket Sign+Verify")

	// rtp + media: one video fragment's worth of the emit and receive paths.
	snd := rtp.NewSender(4242, 96, 1)
	pkt := make([]byte, 0, 2048)
	put("rtp.append_ns", perOp(func() {
		pkt = snd.AppendNext(pkt[:0], 40*time.Millisecond, true, 1000)
		sink += len(pkt)
	}), "Sender.AppendNext, header only")
	pkt = append(snd.AppendNext(pkt[:0], 40*time.Millisecond, true, 1000), make([]byte, 1000)...)
	put("rtp.unmarshal_ns", perOp(func() {
		p, err := rtp.Unmarshal(pkt)
		if err != nil {
			fail("rtp round trip", err)
			return
		}
		sink += int(p.SequenceNumber)
	}), "Unmarshal of a 1000-byte-payload packet")
	video := media.NewVideo("clip1", media.DefaultVideoLadder())
	var scratch []byte
	frame := 0
	put("media.frame_ns", perOp(func() {
		f := video.FrameAt(frame, 0)
		scratch = media.AppendPayload(scratch[:0], "clip1", frame, f.Size)
		sink += len(scratch)
		frame++
	}), "video FrameAt + AppendPayload at level 0")

	buf := buffer.New(buffer.Config{StreamID: "clip1", FrameInterval: 40 * time.Millisecond, Window: time.Second})
	idx := 0
	put("buffer.pushpop_ns", perOp(func() {
		buf.Push(buffer.Item{Frame: media.Frame{Index: idx, PTS: time.Duration(idx) * 40 * time.Millisecond}})
		it, _ := buf.Pop()
		sink += it.Frame.Index
		idx++
	}), "Buffer.Push + Pop")

	// hml + scenario: per document, averaged over lessons/*.hml.
	docs := make([]*hml.Document, len(base))
	put("hml.parse_ns", perOp(func() {
		for i, l := range base {
			d, err := hml.Parse(l.src)
			if err != nil {
				fail("hml.Parse "+l.name, err)
				return
			}
			docs[i] = d
		}
	})/float64(len(base)), "hml.Parse, per lesson")
	if failed != nil {
		return nil, failed // nothing to build scenarios from
	}
	put("scenario.build_ns", perOp(func() {
		for _, d := range docs {
			sc, err := scenario.FromDocument(d)
			if err != nil {
				fail("scenario build", err)
				return
			}
			sink += len(scenario.BuildSchedule(sc).Entries)
		}
	})/float64(len(base)), "scenario.FromDocument + BuildSchedule, per lesson")

	// qos: admission with 10k reservations already held.
	adm := qos.NewAdmission(1e12)
	for i := 0; i < 10_000; i++ {
		adm.Request(qos.ConnRequest{User: "u", Class: qos.Standard, PeakRate: peakRate, MinRate: minRate})
	}
	put("qos.admit_ns", perOp(func() {
		d := adm.Request(qos.ConnRequest{User: "u", Class: qos.Standard, PeakRate: peakRate, MinRate: minRate})
		adm.Release(d.ConnID)
	}), "Admission.Request+Release at 10k reservations")

	// clock: schedule one event and fire the earliest, 10k pending.
	clk := clock.NewSim()
	nop := func() {}
	for i := 0; i < 10_000; i++ {
		clk.AfterFunc(time.Duration(i)*time.Millisecond, nop)
	}
	put("clock.event_ns", perOp(func() {
		clk.AfterFunc(10*time.Second, nop)
		clk.Step()
	}), "Virtual.AfterFunc + Step at 10k pending")

	ns, err := loopback()
	note := "transport.Live UDP Send→handler over the host's loopback; no real link is crossed"
	if err != nil {
		// A sandbox without loopback sockets must not fail the benchmark.
		ns, note = 0, "not measured: "+err.Error()
	}
	put("transport.loopback_ns", ns, note)
	return out, failed
}

// loopback times one datagram through the live transport, send call to
// handler call, one at a time.
func loopback() (float64, error) {
	l := transport.NewLive()
	defer l.Close()
	got := make(chan struct{}, 1) // one datagram in flight at a time
	to := netsim.MakeAddr("bench-sink", 7700)
	if err := l.Listen(to, func(netsim.Packet) { got <- struct{}{} }); err != nil {
		return 0, err
	}
	pkt := netsim.Packet{From: netsim.MakeAddr("bench-src", 7701), To: to, Payload: make([]byte, 1000)}
	var failed error
	ns := perOp(func() {
		if failed != nil {
			return
		}
		if err := l.Send(pkt); err != nil {
			failed = err
			return
		}
		select {
		case <-got:
		case <-time.After(time.Second):
			failed = fmt.Errorf("datagram lost on loopback")
		}
	})
	return ns, failed
}
