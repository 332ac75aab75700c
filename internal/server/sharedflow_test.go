package server

import (
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
		mt, body, err := protocol.Decode(p.Payload)
		if err == nil {
			replies = append(replies, struct {
				mt   protocol.MsgType
				body []byte
			}{mt, append([]byte(nil), body...)})
		}
	})
	send := func(mt protocol.MsgType, body interface{}) {
		h.net.Send(netsim.Packet{
			From: addr, To: netsim.MakeAddr("srv", ControlPort),
			Payload: protocol.MustEncode(mt, body), Reliable: true,
		})
		h.clk.RunFor(time.Second)
	}
	send(protocol.MsgConnect, protocol.Connect{User: "u", Password: "p"})
	send(protocol.MsgDocRequest, protocol.DocRequest{Name: "doc", MediaPortBase: portBase, WindowMS: 300})
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
	vf0 := videoFlowStat(t, h.srv)
	h.clk.RunFor(2 * time.Second)
	if c1Pkts == 0 || c2Pkts == 0 {
		t.Fatalf("fan-out not delivering: c1=%d c2=%d", c1Pkts, c2Pkts)
	}
	// One encode, two deliveries — measured over a window where both
	// subscribers were attached (c1 rode the flow alone before c2 joined,
	// so cumulative totals would under-count the fan-out).
	vf := videoFlowStat(t, h.srv)
	dFrames, dDelivered := int64(vf.Frames-vf0.Frames), vf.Delivered-vf0.Delivered
	if dFrames == 0 || dDelivered < 2*dFrames-4 {
		t.Fatalf("flow frames+=%d delivered+=%d while both attached, want 2× fan-out", dFrames, dDelivered)
	}

	// c1 pauses: it detaches, c2 rides on undisturbed.
	h.send(protocol.MsgPause, protocol.MediaOp{})
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
	h.send(protocol.MsgResume, protocol.MediaOp{})
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
		Payload: protocol.MustEncode(protocol.MsgDisconnect, protocol.Disconnect{}), Reliable: true,
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
// indices, then rides the live cursor.
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
	var got []rx
	for p := 9100; p < 9110; p++ {
		h.net.Listen(netsim.MakeAddr("fake2", p), func(p netsim.Packet) {
			if len(p.Payload) <= rtp.HeaderSize {
				return
			}
			hdr, _, err := media.ParseFrameHeader(p.Payload[rtp.HeaderSize:])
			if err == nil {
				got = append(got, rx{int(hdr.Index), hdr.Kind})
			}
		})
	}
	attachClient(t, h, "fake2", 9100)
	h.clk.RunFor(time.Second)

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

	mgr := h.srv.QoSManager(fakeClient)
	for i := 0; i < 10; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: videoSSRC, FractionLost: 200,
		}}}
		h.send(protocol.MsgFeedback, protocol.Feedback{RTCP: rr.Marshal()})
		h.clk.RunFor(3 * time.Second)
		if lvl, stopped := mgr.Level("v"); lvl > 0 || stopped {
			break
		}
	}
	if lvl, stopped := mgr.Level("v"); lvl == 0 && !stopped {
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

// TestSenderRestartReseedsPayloadTypeFromLevel is the reload regression: a
// degraded stream that is reloaded must seed its fresh RTP state with the
// payload type of its CURRENT level, not level 0's. The video ladder changes
// payload type at its bottom rung (MPEG → AVI), so degrading there and
// reloading exposes the stale seed.
func TestSenderRestartReseedsPayloadTypeFromLevel(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	h.srv.Database().Put("doc", longAVDoc, "")
	dr := connectAndRequest(t, h)
	_, videoSSRC := announcedPort(t, dr, "v")

	mgr := h.srv.QoSManager(fakeClient)
	// Degrade to the AVI rung (level 4) without tripping the cutoff.
	for i := 0; i < 40; i++ {
		if lvl, stopped := mgr.Level("v"); lvl >= 4 || stopped {
			break
		}
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: videoSSRC, FractionLost: 200,
		}}}
		h.send(protocol.MsgFeedback, protocol.Feedback{RTCP: rr.Marshal()})
		h.clk.RunFor(3 * time.Second)
	}
	if lvl, stopped := mgr.Level("v"); lvl != 4 || stopped {
		t.Fatalf("video level = %d stopped=%v, want level 4 live", lvl, stopped)
	}

	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil {
		unlock()
		t.Fatal("session gone")
	}
	snd := sess.sender("v")
	unlock()
	// Restart (the reload path) and inspect the fresh RTP state before the
	// next emit: the paced path re-derives the payload type per frame, so a
	// stale seed only shows in the window before the first post-reload frame
	// — and for good on a stream that is disabled or cut off at reload time.
	snd.restart(h.clk.Now())
	snd.mu.Lock()
	pt := snd.rtpS.PayloadType
	snd.mu.Unlock()
	if pt != rtp.PTAVI {
		t.Fatalf("restarted sender payload type = %d, want PTAVI (%d): restart reseeded from level 0", pt, rtp.PTAVI)
	}
}

// TestSenderPauseResumeDisabledNoOp is the pause/origin regression: pause
// and resume on a disabled sender must be no-ops — the old code recorded
// pausedAt and shifted the origin on resume, silently re-timing the stream
// for whenever it was re-enabled.
func TestSenderPauseResumeDisabledNoOp(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	h.srv.Database().Put("doc", longAVDoc, "")
	connectAndRequest(t, h)
	h.clk.RunFor(time.Second)

	h.send(protocol.MsgDisableMedia, protocol.MediaOp{StreamID: "v"})
	sess, unlock := h.srv.lockedSession(fakeClient)
	snd := sess.sender("v")
	unlock()
	snd.mu.Lock()
	origin0 := snd.origin
	snd.mu.Unlock()

	h.send(protocol.MsgPause, protocol.MediaOp{})
	h.clk.RunFor(5 * time.Second)
	h.send(protocol.MsgResume, protocol.MediaOp{})

	snd.mu.Lock()
	origin1, paused := snd.origin, snd.paused
	snd.mu.Unlock()
	if paused {
		t.Fatal("disabled sender left in paused state")
	}
	if !origin1.Equal(origin0) {
		t.Fatalf("disabled sender origin drifted %v across pause/resume", origin1.Sub(origin0))
	}
}

// TestSharedFlowConcurrentChurn hammers the attach/detach/pause/reload
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
	var flows []*sharedFlow
	h.srv.flows.mu.Lock()
	for _, fl := range h.srv.flows.flows {
		flows = append(flows, fl)
	}
	h.srv.flows.mu.Unlock()
	if len(flows) == 0 {
		t.Fatal("no shared flows stood up")
	}

	origin := h.clk.Now()
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
					snd.detachShared()
				case 3:
					snd.restart(origin)
				default:
					_ = snd.stats()
				}
			}
		}(i, snd)
	}
	for _, fl := range flows {
		wg.Add(1)
		go func(fl *sharedFlow) {
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
