package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/rtp"
)

// longAVDoc runs for two virtual minutes so every scenario here lands
// mid-playout.
const longAVDoc = `<TITLE>long</TITLE>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=120> </AU_VI>`

// attachClient connects a second (or third…) fake client and requests the
// document, capturing its replies like the harness does for fakeClient.
func attachClient(t *testing.T, h *harness, host string, portBase int) protocol.DocResponse {
	t.Helper()
	addr := netsim.MakeAddr(host, 6000)
	var replies []struct {
		mt   protocol.MsgType
		body []byte
	}
	h.net.Listen(addr, func(p netsim.Packet) {
		mt, _, body, err := protocol.DecodeReq(p.Payload)
		if err == nil {
			replies = append(replies, struct {
				mt   protocol.MsgType
				body []byte
			}{mt, append([]byte(nil), body...)})
		}
	})
	send := func(mt protocol.MsgType, body protocol.Message) {
		h.net.Send(netsim.Packet{
			From: addr, To: netsim.MakeAddr("srv", ControlPort),
			Payload: mustFrame(mt, 0, body), Reliable: true,
		})
		h.clk.RunFor(time.Second)
	}
	send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: portBase, WindowMS: 300})
	for i := len(replies) - 1; i >= 0; i-- {
		if replies[i].mt == protocol.MsgDocResponse {
			var dr protocol.DocResponse
			if err := protocol.DecodeBody(replies[i].body, &dr); err != nil {
				t.Fatal(err)
			}
			if !dr.OK {
				t.Fatalf("doc response for %s = %+v", host, dr)
			}
			return dr
		}
	}
	t.Fatalf("no doc response for %s", host)
	return protocol.DocResponse{}
}

func announcedPort(t *testing.T, dr protocol.DocResponse, streamID string) (int, uint32) {
	t.Helper()
	for _, ann := range dr.Streams {
		if ann.StreamID == streamID {
			return ann.Port, ann.SSRC
		}
	}
	t.Fatalf("stream %s not announced: %+v", streamID, dr.Streams)
	return 0, 0
}

func videoFlowStat(t *testing.T, srv *Server) FlowStat {
	t.Helper()
	for _, st := range srv.FlowStats() {
		if st.Stream == "v" {
			return st
		}
	}
	t.Fatalf("no shared video flow: %+v", srv.FlowStats())
	return FlowStat{}
}

// TestSharedFlowFanOutLifecycle walks the whole flow lifecycle: two viewers
// of the same document share one paced flow per time-sensitive stream (one
// encode, two deliveries, one announced SSRC), a pause detaches one
// subscriber without disturbing the other, and the last leave tears the
// flow down.
func TestSharedFlowFanOutLifecycle(t *testing.T) {
	h := newHarness(t, Options{SharedFlows: true, PreRoll: 300 * time.Millisecond})
	h.srv.Database().Put("doc", longAVDoc, "")

	dr1 := connectAndRequest(t, h)
	dr2 := attachClient(t, h, "fake2", 9100)

	// Both sessions ride the same flows: one per time-sensitive stream.
	stats := h.srv.FlowStats()
	if len(stats) != 2 {
		t.Fatalf("flows = %+v, want audio+video", stats)
	}
	for _, st := range stats {
		if st.Subscribers != 2 {
			t.Fatalf("flow %s has %d subscribers, want 2", st.Stream, st.Subscribers)
		}
	}
	// The flow's SSRC is announced to every subscriber.
	_, ssrc1 := announcedPort(t, dr1, "v")
	p2, ssrc2 := announcedPort(t, dr2, "v")
	if ssrc1 != ssrc2 {
		t.Fatalf("video SSRC differs across subscribers: %d vs %d", ssrc1, ssrc2)
	}

	p1, _ := announcedPort(t, dr1, "v")
	var c1Pkts, c2Pkts int
	h.net.Listen(netsim.MakeAddr("fake", p1), func(netsim.Packet) { c1Pkts++ })
	h.net.Listen(netsim.MakeAddr("fake2", p2), func(netsim.Packet) { c2Pkts++ })
	sent, delivered := h.scope.Counter("server_media_frames_sent"), h.scope.Counter("server_media_frames_delivered")
	sent0, delivered0 := sent.Value(), delivered.Value()
	h.clk.RunFor(2 * time.Second)
	if c1Pkts == 0 || c2Pkts == 0 {
		t.Fatalf("fan-out not delivering: c1=%d c2=%d", c1Pkts, c2Pkts)
	}
	// One encode, two deliveries — measured over a window where both
	// subscribers were attached to both flows (c1 rode them alone before c2
	// joined, so cumulative totals would under-count the fan-out).
	dFrames, dDelivered := sent.Value()-sent0, delivered.Value()-delivered0
	if dFrames == 0 || dDelivered < 2*dFrames-4 {
		t.Fatalf("flow frames+=%d delivered+=%d while both attached, want 2× fan-out", dFrames, dDelivered)
	}

	// c1 pauses: it detaches, c2 rides on undisturbed.
	h.send(protocol.MsgPause, &protocol.MediaOp{})
	if vf := videoFlowStat(t, h.srv); vf.Subscribers != 1 {
		t.Fatalf("subscribers after pause = %d, want 1", vf.Subscribers)
	}
	c1Base, c2Base := c1Pkts, c2Pkts
	h.clk.RunFor(2 * time.Second)
	if c1Pkts > c1Base+2 {
		t.Fatalf("paused subscriber kept receiving: %d → %d", c1Base, c1Pkts)
	}
	if c2Pkts <= c2Base {
		t.Fatal("remaining subscriber starved by the pause")
	}

	// c1 resumes privately; the flow keeps one subscriber.
	h.send(protocol.MsgResume, &protocol.MediaOp{})
	c1Base = c1Pkts
	h.clk.RunFor(2 * time.Second)
	if c1Pkts <= c1Base {
		t.Fatal("resumed subscriber not receiving from its private sender")
	}
	if vf := videoFlowStat(t, h.srv); vf.Subscribers != 1 {
		t.Fatalf("subscribers after private resume = %d, want 1", vf.Subscribers)
	}

	// The last subscriber leaves: the flow tears down; the private sender
	// is untouched.
	h.net.Send(netsim.Packet{
		From: netsim.MakeAddr("fake2", 6000), To: netsim.MakeAddr("srv", ControlPort),
		Payload: protocol.MustEncodeReq(protocol.MsgDisconnect, 0, protocol.Disconnect{}), Reliable: true,
	})
	h.clk.RunFor(time.Second)
	if stats := h.srv.FlowStats(); len(stats) != 0 {
		t.Fatalf("flows after last leave = %+v, want none", stats)
	}
	c1Base = c1Pkts
	h.clk.RunFor(2 * time.Second)
	if c1Pkts <= c1Base {
		t.Fatal("private sender stopped by flow teardown")
	}
}

// TestSharedFlowLateJoinerCatchUp verifies a mid-playout joiner receives a
// unicast catch-up patch aligned back to an I-frame, with the original frame
// indices and payload bytes, then rides the live cursor.
func TestSharedFlowLateJoinerCatchUp(t *testing.T) {
	h := newHarness(t, Options{SharedFlows: true, PreRoll: 300 * time.Millisecond})
	h.srv.Database().Put("doc", longAVDoc, "")

	connectAndRequest(t, h)
	h.clk.RunFor(3 * time.Second) // the flow fills its segment cache

	// Pre-listen on the late joiner's whole announced range so the patch
	// (which lands right after the DocResponse) is observed.
	type rx struct {
		idx  int
		kind media.FrameKind
	}
	type frameAt struct{ port, idx int }
	var got []rx
	bodies, frags := map[frameAt][]byte{}, map[frameAt]int{}
	for port := 9100; port < 9110; port++ {
		h.net.Listen(netsim.MakeAddr("fake2", port), func(p netsim.Packet) {
			if len(p.Payload) <= rtp.HeaderSize {
				return
			}
			hdr, data, err := media.ParseFrameHeader(p.Payload[rtp.HeaderSize:])
			if err != nil {
				return
			}
			got = append(got, rx{int(hdr.Index), hdr.Kind})
			k := frameAt{port, int(hdr.Index)}
			if bodies[k] == nil {
				bodies[k] = make([]byte, hdr.FrameSize)
			}
			off, _ := media.FragmentSpan(int(hdr.FrameSize), int(hdr.Frag))
			copy(bodies[k][off:], data)
			frags[k]++
		})
	}
	dr := attachClient(t, h, "fake2", 9100)
	h.clk.RunFor(time.Second)
	streamAt := map[int]string{}
	for _, sa := range dr.Streams {
		streamAt[sa.Port] = sa.StreamID
	}
	// Every frame the joiner got, the patch's included, carries the bytes
	// its stream, index and size name.
	for k, body := range bodies {
		id := streamAt[k.port]
		if frags[k] != media.FragmentCount(len(body)) {
			t.Errorf("stream %q frame %d: %d of %d fragments", id, k.idx, frags[k], media.FragmentCount(len(body)))
		} else if !bytes.Equal(body, media.Payload(id, k.idx, len(body))) {
			t.Errorf("stream %q frame %d does not reassemble to its payload", id, k.idx)
		}
	}

	if vf := videoFlowStat(t, h.srv); vf.Subscribers != 2 {
		t.Fatalf("late joiner not attached: %+v", vf)
	}
	if len(got) == 0 {
		t.Fatal("late joiner received nothing")
	}
	minIdx, kindAtMin := int(^uint(0)>>1), media.FrameKind(0)
	for _, r := range got {
		if r.idx < minIdx {
			minIdx, kindAtMin = r.idx, r.kind
		}
	}
	// The patch reaches back to a mid-stream GoP start, not to frame 0 and
	// not only the live cursor.
	if minIdx == 0 {
		t.Fatal("joiner was replayed from the beginning, not patched")
	}
	if kindAtMin != media.FrameI {
		t.Fatalf("patch starts on a %v frame at idx %d, want an I-frame", kindAtMin, minIdx)
	}
	catchup := h.scope.Counter("server_flow_catchup_frames")
	if catchup.Value() == 0 {
		t.Fatal("delivered patch not counted in server_flow_catchup_frames")
	}

	// A joiner that disconnects before the patch is due must get none of it
	// — on the wire or in the counters: the patched frames no longer belong
	// to anything its client plays.
	addr := netsim.MakeAddr("fake3", 6000)
	sendAt := func(mt protocol.MsgType, body protocol.Message, run time.Duration) {
		h.net.Send(netsim.Packet{
			From: addr, To: netsim.MakeAddr("srv", ControlPort),
			Payload: mustFrame(mt, 0, body), Reliable: true,
		})
		h.clk.RunFor(run)
	}
	// Once the disconnect has taken effect the shared flow no longer sends
	// here, so any frame from the flow's mid-stream position (past frame 100
	// by now) can only be the patch.
	var opAt time.Time
	stale := 0
	for p := 9200; p < 9210; p++ {
		h.net.Listen(netsim.MakeAddr("fake3", p), func(p netsim.Packet) {
			if opAt.IsZero() || h.clk.Now().Sub(opAt) < 20*time.Millisecond || len(p.Payload) <= rtp.HeaderSize {
				return
			}
			if hdr, _, err := media.ParseFrameHeader(p.Payload[rtp.HeaderSize:]); err == nil && hdr.Index > 50 {
				stale++
			}
		})
	}
	before := catchup.Value()
	sendAt(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"}, time.Second)
	sendAt(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9200, WindowMS: 300}, 10*time.Millisecond)
	if vf := videoFlowStat(t, h.srv); vf.Subscribers < 2 || vf.Next < 100 {
		t.Fatalf("fake3 did not join the flow mid-stream: %+v", vf)
	}
	opAt = h.clk.Now()
	sendAt(protocol.MsgDisconnect, &protocol.Disconnect{}, 500*time.Millisecond)
	if stale != 0 {
		t.Fatalf("%d stale patch packets sent after the disconnect", stale)
	}
	if got := catchup.Value(); got != before {
		t.Fatalf("catch-up counter %d → %d for a patch that was never due", before, got)
	}
}

// TestSharedFlowGradeDivergenceDetaches hammers one subscriber's video with
// loss reports until grading moves it off the flow's level; that subscriber
// must detach onto a private sender while the other keeps the shared flow.
func TestSharedFlowGradeDivergenceDetaches(t *testing.T) {
	h := newHarness(t, Options{SharedFlows: true, PreRoll: 300 * time.Millisecond})
	h.srv.Database().Put("doc", longAVDoc, "")

	dr1 := connectAndRequest(t, h)
	dr2 := attachClient(t, h, "fake2", 9100)
	_, videoSSRC := announcedPort(t, dr1, "v")

	for i := 0; i < 10; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: videoSSRC, FractionLost: 200,
		}}}
		h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		h.clk.RunFor(3 * time.Second)
		if lvl, stopped := h.srv.gradeLevel(fakeClient, "v"); lvl > 0 || stopped {
			break
		}
	}
	if lvl, stopped := h.srv.gradeLevel(fakeClient, "v"); lvl == 0 && !stopped {
		t.Fatal("grading never acted on the video")
	}
	if vf := videoFlowStat(t, h.srv); vf.Subscribers != 1 {
		t.Fatalf("video flow subscribers after divergence = %d, want 1", vf.Subscribers)
	}
	// The undisturbed subscriber still receives shared frames.
	p2, _ := announcedPort(t, dr2, "v")
	var c2Pkts int
	h.net.Listen(netsim.MakeAddr("fake2", p2), func(netsim.Packet) { c2Pkts++ })
	h.clk.RunFor(2 * time.Second)
	if c2Pkts == 0 {
		t.Fatal("remaining subscriber starved by the divergence detach")
	}
}

// rtpTap records what one client receives on its video port: frames, RTP
// sequence continuity and the SSRC of every packet.
type rtpTap struct {
	ssrc    uint32 // of the first packet; the test compares it with the announced one
	pkts    int
	frames  int
	foreign int // packets carrying any other SSRC
	breaks  int // packets whose sequence number does not follow the previous one
	lastSeq uint16
}

func (tap *rtpTap) listen(h *harness, addr netsim.Addr) {
	h.net.Listen(addr, func(p netsim.Packet) {
		if len(p.Payload) >= 2 && p.Payload[1] >= 200 && p.Payload[1] <= 204 {
			return // RTCP sender report
		}
		pkt, err := rtp.Unmarshal(p.Payload)
		if err != nil {
			return
		}
		if tap.pkts == 0 {
			tap.ssrc = pkt.SSRC
		} else if pkt.SSRC != tap.ssrc {
			tap.foreign++
		}
		if tap.pkts > 0 && pkt.SequenceNumber != tap.lastSeq+1 {
			tap.breaks++
		}
		tap.lastSeq = pkt.SequenceNumber
		tap.pkts++
		if hdr, _, err := media.ParseFrameHeader(pkt.Payload); err == nil && hdr.Frag == 0 {
			tap.frames++
		}
	})
}

// flowWorld is two viewers of one long A/V document on a loss- and
// jitter-free link: c1 ("fake") is driven through the op sequences, c2
// ("fake2") only watches and must never notice.
type flowWorld struct {
	t      *testing.T
	h      *harness
	c1, c2 rtpTap
	v      *sender // c1's video handle
	flows  map[*flow]bool
}

const c2Addr = netsim.Addr("fake2:6000")

func (w *flowWorld) sendFrom(from netsim.Addr, mt protocol.MsgType, body protocol.Message) {
	w.h.net.Send(netsim.Packet{
		From: from, To: netsim.MakeAddr("srv", ControlPort),
		Payload: mustFrame(mt, 0, body), Reliable: true,
	})
	w.h.clk.RunFor(time.Second)
}

// note remembers every flow a session's handles have been on, so the end of
// the row can check that none of them kept a timer.
func (w *flowWorld) note(client netsim.Addr) {
	sess, unlock := w.h.srv.lockedSession(client)
	defer unlock()
	if sess == nil {
		return
	}
	for _, snd := range sess.senders {
		w.flows[snd.flow()] = true
	}
}

func (w *flowWorld) degradeVideo() {
	// Degrade to the AVI rung (level 4) without tripping the cutoff: the
	// video ladder changes payload type only there.
	for i := 0; i < 40; i++ {
		if lvl, stopped := w.h.srv.gradeLevel(fakeClient, "v"); lvl >= 4 || stopped {
			break
		}
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: w.c1.ssrc, FractionLost: 200,
		}}}
		w.h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		w.h.clk.RunFor(3 * time.Second)
	}
	if lvl, stopped := w.h.srv.gradeLevel(fakeClient, "v"); lvl != 4 || stopped {
		w.t.Fatalf("video level = %d stopped=%v, want level 4 live", lvl, stopped)
	}
}

// flowStep is one control operation on c1 and what must hold after it.
type flowStep struct {
	name string
	do   func(w *flowWorld)
	// check runs right after do, before any further virtual time passes.
	check func(w *flowWorld)
	// playing says whether c1's video must be arriving afterwards.
	playing bool
}

var (
	stepPause   = flowStep{name: "pause", do: func(w *flowWorld) { w.h.send(protocol.MsgPause, &protocol.MediaOp{}) }}
	stepResume  = flowStep{name: "resume", playing: true, do: func(w *flowWorld) { w.h.send(protocol.MsgResume, &protocol.MediaOp{}) }}
	stepSuspend = flowStep{name: "suspend", do: func(w *flowWorld) {
		w.h.send(protocol.MsgSuspend, &protocol.Suspend{})
		var sr protocol.SuspendResult
		w.h.lastReply(w.t, protocol.MsgSuspendResult, &sr)
		if !sr.OK {
			w.t.Fatalf("suspend = %+v", sr)
		}
	}}
	// A user pause underneath the suspend must survive the recovery.
	stepReattachStillPaused = flowStep{name: "recover", do: func(w *flowWorld) {
		var cr protocol.ConnectResult
		w.h.lastReply(w.t, protocol.MsgConnectResult, &cr)
		w.h.send(protocol.MsgConnect, &protocol.Connect{ResumeSession: cr.SessionID})
	}}
	stepDegrade = flowStep{name: "degrade", playing: true, do: (*flowWorld).degradeVideo}
	// A reload is the same document requested again: the degraded stream's
	// flow stops, and c1's video starts over on another flow at level 0 (a
	// fresh request grades afresh). c1's tap re-anchors once the old flow's
	// packets and any catch-up patch have landed.
	stepReload = flowStep{name: "reload", playing: true, do: func(w *flowWorld) {
		old := w.v.flow()
		w.h.net.Send(netsim.Packet{
			From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
			Payload: mustFrame(protocol.MsgDocRequest, 0, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300}), Reliable: true,
		})
		w.h.clk.RunFor(500 * time.Millisecond)
		w.c1 = rtpTap{}
		sess, unlock := w.h.srv.lockedSession(fakeClient)
		w.v = sess.sender("v")
		unlock()
		fl := w.v.flow()
		fl.mu.Lock()
		pt := fl.rtpS.PayloadType
		fl.mu.Unlock()
		old.mu.Lock()
		finished := old.finished
		old.mu.Unlock()
		if fl == old || pt == rtp.PTAVI {
			w.t.Fatalf("reloaded video on its old flow (%v) or at its old level (payload type %d)", fl == old, pt)
		}
		if !finished {
			w.t.Fatal("the degraded flow outlived the reload")
		}
	}}
	stepDisable = flowStep{name: "disable", do: func(w *flowWorld) {
		w.h.send(protocol.MsgDisableMedia, &protocol.MediaOp{StreamID: "v"})
	}}
	// The pause/origin regression: pause and resume on a disabled flow must be
	// no-ops — recording pausedAt and shifting the origin on resume would
	// silently re-time the stream for whenever it was re-enabled.
	stepPauseResumeDisabled = flowStep{name: "pause+resume while disabled", do: func(w *flowWorld) {
		fl := w.v.flow()
		fl.mu.Lock()
		origin0 := fl.origin
		fl.mu.Unlock()
		w.h.send(protocol.MsgPause, &protocol.MediaOp{})
		w.h.clk.RunFor(5 * time.Second)
		w.h.send(protocol.MsgResume, &protocol.MediaOp{})
		fl.mu.Lock()
		origin1, paused := fl.origin, fl.paused
		fl.mu.Unlock()
		if paused {
			w.t.Fatal("disabled flow left in paused state")
		}
		if !origin1.Equal(origin0) {
			w.t.Fatalf("disabled flow origin drifted %v across pause/resume", origin1.Sub(origin0))
		}
	}}
	stepStop = flowStep{name: "stop", do: func(w *flowWorld) {
		w.h.send(protocol.MsgDisconnect, &protocol.Disconnect{})
	}}
)

// TestFlowLifecycle runs the same control-operation sequences against a
// private flow and against one subscriber of a two-subscriber shared flow.
// After every step the stream c1 receives must still be the announced SSRC
// with contiguous RTP sequence numbers (a split is seamless), and c2 must
// have received exactly the frames the elapsed time calls for; once both
// sessions are gone the flow registry is empty and no flow or patch timer is
// left on the clock.
func TestFlowLifecycle(t *testing.T) {
	rows := []struct {
		name  string
		steps []flowStep
	}{
		{"pause then resume", []flowStep{stepPause, stepResume}},
		{"park and unpark under a user pause", []flowStep{stepPause, stepSuspend, stepReattachStillPaused, stepResume}},
		{"reload at a degraded level", []flowStep{stepDegrade, stepReload}},
		{"disable then pause and resume", []flowStep{stepDisable, stepPauseResumeDisabled}},
		{"stop", []flowStep{stepStop}},
	}
	for _, shared := range []bool{false, true} {
		for _, row := range rows {
			mode := "private"
			if shared {
				mode = "shared"
			}
			t.Run(mode+"/"+row.name, func(t *testing.T) {
				// No heartbeats in these rows: keep a recovered session off the
				// liveness sweep.
				h := newHarness(t, Options{SharedFlows: shared, PreRoll: 300 * time.Millisecond, Grace: time.Minute, LivenessMisses: 1000})
				h.net.SetDefaultLink(netsim.LinkConfig{Bandwidth: 1e9, Delay: time.Millisecond})
				h.srv.Database().Put("doc", `<TITLE>long</TITLE>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=600> </AU_VI>`, "")
				w := &flowWorld{t: t, h: h, flows: map[*flow]bool{}}

				// Both viewers connect first, so the timers pending now are the
				// control plane's own; then c1 opens the document and c2 joins
				// mid-playout.
				h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
				w.sendFrom(c2Addr, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
				ctrlTimers := h.clk.Pending()
				for _, c := range []struct {
					tap  *rtpTap
					host string
					base int
				}{{&w.c1, "fake", 9000}, {&w.c2, "fake2", 9100}} {
					// Listen on the video port (the document's second stream)
					// before requesting, so the tap sees the stream's very
					// first packet and any catch-up patch.
					c.tap.listen(h, netsim.MakeAddr(c.host, c.base+1))
					ctl := netsim.MakeAddr(c.host, 6000)
					w.sendFrom(ctl, protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: c.base, WindowMS: 300})
					sess, unlock := h.srv.lockedSession(ctl)
					if sess == nil || sess.sender("v") == nil || sess.sender("v").to != netsim.MakeAddr(c.host, c.base+1) {
						unlock()
						t.Fatalf("%s: no video stream on port %d", c.host, c.base+1)
					}
					if announced := sess.sender("v").flow().ssrc; c.tap.ssrc != announced {
						unlock()
						t.Fatalf("%s: video arrives with SSRC %d, announced %d", c.host, c.tap.ssrc, announced)
					}
					if ctl == fakeClient {
						w.v = sess.sender("v")
					}
					unlock()
					h.clk.RunFor(2 * time.Second)
				}
				if got := len(h.srv.FlowStats()); shared != (got == 2) {
					t.Fatalf("registered flows = %d with SharedFlows=%v", got, shared)
				}

				for _, st := range row.steps {
					w.note(fakeClient)
					w.note(c2Addr)
					t0, c2 := h.clk.Now(), w.c2
					breaks := w.c1.breaks
					st.do(w)
					if st.check != nil {
						st.check(w)
					}
					h.clk.RunFor(time.Second) // in-flight packets land, the renegotiation tick fires
					c1Frames := w.c1.frames
					h.clk.RunFor(2 * time.Second)
					if playing := w.c1.frames > c1Frames; playing != st.playing {
						t.Fatalf("after %s: c1 video playing = %v, want %v", st.name, playing, st.playing)
					}
					if w.c1.foreign != 0 || w.v.flow().ssrc != w.c1.ssrc {
						t.Fatalf("after %s: SSRC changed (%d foreign packets, flow ssrc %d, announced %d)",
							st.name, w.c1.foreign, w.v.flow().ssrc, w.c1.ssrc)
					}
					if w.c1.breaks != breaks {
						t.Fatalf("after %s: %d RTP sequence breaks on c1's video, want %d", st.name, w.c1.breaks, breaks)
					}
					// 25 fps video: one frame per 40 ms of virtual time, whatever
					// happened to c1.
					want := int(h.clk.Now().Sub(t0) / (40 * time.Millisecond))
					if got := w.c2.frames - c2.frames; got < want-1 || got > want+1 {
						t.Fatalf("after %s: c2 received %d video frames in %v, want %d", st.name, got, h.clk.Now().Sub(t0), want)
					}
					if w.c2.breaks != c2.breaks || w.c2.foreign != 0 {
						t.Fatalf("after %s: c2 disturbed (%d new sequence breaks, %d foreign packets)", st.name, w.c2.breaks-c2.breaks, w.c2.foreign)
					}
				}

				// Everyone leaves (c1 may already have).
				w.note(fakeClient)
				w.note(c2Addr)
				h.send(protocol.MsgDisconnect, &protocol.Disconnect{})
				w.sendFrom(c2Addr, protocol.MsgDisconnect, &protocol.Disconnect{})
				if n := h.srv.Sessions(); n != 0 {
					t.Fatalf("sessions left = %d", n)
				}
				h.srv.flows.mu.Lock()
				registered := len(h.srv.flows.flows)
				h.srv.flows.mu.Unlock()
				if registered != 0 {
					t.Fatalf("flow registry holds %d flows after every session stopped", registered)
				}
				for fl := range w.flows {
					fl.mu.Lock()
					armed, finished := fl.timer != nil, fl.finished
					fl.mu.Unlock()
					if armed || !finished {
						t.Fatalf("flow %s (ssrc %d) armed=%v finished=%v after every session stopped", fl.stream.ID, fl.ssrc, armed, finished)
					}
				}
				if got := h.clk.Pending(); got > ctrlTimers {
					t.Fatalf("%d timers pending after every session stopped, %d before any document was open: a flow timer leaked", got, ctrlTimers)
				}
			})
		}
	}
}

// TestSharedFlowConcurrentChurn hammers the attach/detach/pause/park
// surface from many goroutines while the flows pump — a lock-order and race
// exercise (run under -race via `make race`). No assertions beyond
// consistency: it must neither deadlock nor corrupt the registry.
func TestSharedFlowConcurrentChurn(t *testing.T) {
	// Capacity lifted so admission does not cap the eight-session fleet.
	h := newHarness(t, Options{SharedFlows: true, PreRoll: 300 * time.Millisecond, Capacity: 1e9})
	h.srv.Database().Put("doc", longAVDoc, "")

	connectAndRequest(t, h)
	for i := 2; i <= 8; i++ {
		attachClient(t, h, fmt.Sprintf("fake%d", i), 9000+100*i)
	}

	var senders []*sender
	for i := range h.srv.shards {
		sh := &h.srv.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			for _, snd := range sess.senders {
				if snd.stream.Type.TimeSensitive() {
					senders = append(senders, snd)
				}
			}
		}
		sh.mu.Unlock()
	}
	var flows []*flow
	h.srv.flows.mu.Lock()
	for _, fl := range h.srv.flows.flows {
		flows = append(flows, fl)
	}
	h.srv.flows.mu.Unlock()
	if len(flows) == 0 {
		t.Fatal("no shared flows stood up")
	}

	var wg sync.WaitGroup
	for i, snd := range senders {
		wg.Add(1)
		go func(i int, snd *sender) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				switch (i + k) % 5 {
				case 0:
					snd.pause()
				case 1:
					snd.resume()
				case 2:
					snd.split()
				case 3:
					snd.park()
				default:
					_ = snd.nominalRate()
				}
			}
		}(i, snd)
	}
	for _, fl := range flows {
		wg.Add(1)
		go func(fl *flow) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				fl.pump(10)
			}
		}(fl)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 100; k++ {
			_ = h.srv.FlowStats()
		}
	}()
	wg.Wait()

	// Registry consistency: every surviving flow still has subscribers.
	for _, st := range h.srv.FlowStats() {
		if st.Subscribers <= 0 {
			t.Fatalf("empty flow survived churn: %+v", st)
		}
	}
}
