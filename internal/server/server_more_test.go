package server

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
)

// connectAndRequest drives the harness session into viewing with live
// senders.
func connectAndRequest(t *testing.T, h *harness) protocol.DocResponse {
	t.Helper()
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300})
	var dr protocol.DocResponse
	h.lastReply(t, protocol.MsgDocResponse, &dr)
	if !dr.OK {
		t.Fatalf("doc response = %+v", dr)
	}
	return dr
}

func TestServerSubscribeInBand(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgSubscribe, &protocol.SubscriptionForm{
		User: "new", Password: "np", Email: "n@x", RealName: "New",
	})
	var sr protocol.SubscribeResult
	h.lastReply(t, protocol.MsgSubscribeResult, &sr)
	if !sr.OK {
		t.Fatalf("subscribe = %+v", sr)
	}
	if _, err := h.users.Authenticate("new", "np", h.clk.Now()); err != nil {
		t.Fatal("user missing from the database")
	}
	// Duplicate subscription is refused with a reason.
	h.send(protocol.MsgSubscribe, &protocol.SubscriptionForm{
		User: "new", Password: "np", Email: "n@x",
	})
	var sr2 protocol.SubscribeResult
	h.lastReply(t, protocol.MsgSubscribeResult, &sr2)
	if sr2.OK || sr2.Reason == "" {
		t.Fatalf("duplicate subscribe = %+v", sr2)
	}
}

func TestServerFederatedSearchFanOut(t *testing.T) {
	h := newHarness(t, Options{})
	// A peer server with one matching document.
	peerDB := NewDatabase()
	peerDB.Put("remote-doc", `<TITLE>Remote databases</TITLE><TEXT>x</TEXT>`, "")
	if _, err := New("peer", h.clk, h.net, h.users, peerDB, Options{}); err != nil {
		t.Fatal(err)
	}
	h.srv.SetPeers([]string{"peer"})

	h.send(protocol.MsgSearch, &protocol.Search{Token: "databases"})
	h.clk.RunFor(3 * time.Second)
	var res protocol.SearchResult
	h.lastReply(t, protocol.MsgSearchResult, &res)
	if len(res.Hits) != 1 || res.Hits[0].Server != "peer" {
		t.Fatalf("hits = %+v", res.Hits)
	}
}

func TestServerSearchTimeoutWithDeadPeer(t *testing.T) {
	h := newHarness(t, Options{})
	h.srv.SetPeers([]string{"ghost-server"}) // nobody listens there
	h.srv.Database().Put("local-db", `<TITLE>Local databases</TITLE><TEXT>y</TEXT>`, "")
	h.send(protocol.MsgSearch, &protocol.Search{Token: "databases"})
	h.clk.RunFor(5 * time.Second) // past the 2s search timeout
	var res protocol.SearchResult
	h.lastReply(t, protocol.MsgSearchResult, &res)
	// The local hit still comes back despite the dead peer.
	if len(res.Hits) != 1 || res.Hits[0].Name != "local-db" {
		t.Fatalf("hits = %+v", res.Hits)
	}
}

func TestServerSearchNoForwardAnswersDirectly(t *testing.T) {
	h := newHarness(t, Options{})
	h.srv.Database().Put("d", `<TITLE>Databases</TITLE><TEXT>z</TEXT>`, "")
	h.send(protocol.MsgSearch, &protocol.Search{Token: "databases", NoForward: true, SearchID: 77})
	var res protocol.SearchResult
	h.lastReply(t, protocol.MsgSearchResult, &res)
	if res.SearchID != 77 || len(res.Hits) != 1 {
		t.Fatalf("fan-out reply = %+v", res)
	}
}

func TestServerMediaOpsDriveSenders(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	// Pre-register listeners on the whole announced port range so the
	// earliest stills are observed too.
	var pkts int
	for p := 9000; p < 9010; p++ {
		h.net.Listen(netsim.MakeAddr("fake", p), func(netsim.Packet) { pkts++ })
	}
	dr := connectAndRequest(t, h)
	h.clk.RunFor(2 * time.Second)
	flowing := pkts
	if flowing == 0 {
		t.Fatal("no media flowing")
	}
	// Pause stops the flow.
	h.send(protocol.MsgPause, &protocol.MediaOp{})
	base := pkts
	h.clk.RunFor(2 * time.Second)
	if pkts > base+2 {
		t.Fatalf("media flowed during pause: %d → %d", base, pkts)
	}
	// Resume restarts it; run far enough that the next flows (I2 at
	// ~7.6s, shifted by the pause) come due.
	h.send(protocol.MsgResume, &protocol.MediaOp{})
	base = pkts
	h.clk.RunFor(8 * time.Second)
	if pkts <= base {
		t.Fatal("media did not resume")
	}
	// Disable one stream: its port goes quiet, others continue.
	var videoPort, audioPort int
	var videoID string
	for _, ann := range dr.Streams {
		if ann.StreamID == "V" {
			videoPort, videoID = ann.Port, ann.StreamID
		}
		if ann.StreamID == "A1" {
			audioPort = ann.Port
		}
	}
	var vPkts, aPkts int
	h.net.Listen(netsim.MakeAddr("fake", videoPort), func(netsim.Packet) { vPkts++ })
	h.net.Listen(netsim.MakeAddr("fake", audioPort), func(netsim.Packet) { aPkts++ })
	h.send(protocol.MsgDisableMedia, &protocol.MediaOp{StreamID: videoID})
	// A couple of in-flight packets may still land; after that the
	// disabled stream is silent while the audio continues.
	h.clk.RunFor(time.Second)
	vInFlight := vPkts
	h.clk.RunFor(9 * time.Second)
	if vPkts > vInFlight {
		t.Fatalf("disabled video kept sending: %d → %d", vInFlight, vPkts)
	}
	if aPkts == 0 {
		t.Fatal("audio silenced by video disable")
	}
}

func TestServerReloadRestartsFlows(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	i1 := 0
	counts := map[int]*int{}
	for p := 9000; p < 9010; p++ {
		p := p
		n := new(int)
		counts[p] = n
		h.net.Listen(netsim.MakeAddr("fake", p), func(netsim.Packet) { *n++ })
	}
	dr := connectAndRequest(t, h)
	var i1Port int
	for _, ann := range dr.Streams {
		if ann.StreamID == "I1" {
			i1Port = ann.Port
		}
	}
	h.clk.RunFor(2 * time.Second)
	i1 = *counts[i1Port]
	first := i1
	if first == 0 {
		t.Fatal("still never sent")
	}
	// Reload, a repeated document request: the one-shot still is
	// transmitted again.
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300})
	h.clk.RunFor(2 * time.Second)
	if *counts[i1Port] <= first {
		t.Fatalf("reload did not resend the still: %d → %d", first, *counts[i1Port])
	}
}

func TestServerFeedbackDrivesGrading(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	dr := connectAndRequest(t, h)
	var videoSSRC uint32
	for _, ann := range dr.Streams {
		if ann.StreamID == "V" {
			videoSSRC = ann.SSRC
		}
	}
	mgr := h.srv.QoSManager(fakeClient)
	if mgr == nil {
		t.Fatal("no manager")
	}
	// Repeated heavy-loss receiver reports about the video stream.
	for i := 0; i < 5; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: videoSSRC, FractionLost: 128, // 50%
		}}}
		h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		h.clk.RunFor(3 * time.Second)
	}
	lvl, stopped := h.srv.gradeLevel(fakeClient, "V")
	if lvl == 0 && !stopped {
		t.Fatal("feedback never degraded the video")
	}
	// Unknown SSRCs and garbage RTCP are ignored without panic.
	h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: []byte{1, 2, 3}})
	rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{SSRC: 999999}}}
	h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
}

func TestServerFeedbackIgnoredWhenGradingDisabled(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond, DisableGrading: true})
	dr := connectAndRequest(t, h)
	mgr := h.srv.QoSManager(fakeClient)
	for i := 0; i < 5; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: dr.Streams[0].SSRC, FractionLost: 255,
		}}}
		h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		h.clk.RunFor(3 * time.Second)
	}
	if len(mgr.Actions()) != 0 {
		t.Fatalf("grading acted while disabled: %+v", mgr.Actions())
	}
}

func TestServerCutoffStopsTransmissionAndRestoreResumes(t *testing.T) {
	h := newHarness(t, Options{PreRoll: 300 * time.Millisecond})
	// Replace the doc with a long AV stream starting at 0.
	h.srv.Database().Put("doc", `<TITLE>long</TITLE>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=120> </AU_VI>`, "")
	dr := connectAndRequest(t, h)
	var videoSSRC uint32
	var videoPort int
	for _, ann := range dr.Streams {
		if ann.StreamID == "v" {
			videoSSRC, videoPort = ann.SSRC, ann.Port
		}
	}
	vPkts := 0
	h.net.Listen(netsim.MakeAddr("fake", videoPort), func(netsim.Packet) { vPkts++ })
	// Hammer with loss until cutoff.
	for i := 0; i < 30; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{
			SSRC: videoSSRC, FractionLost: 200,
		}}}
		h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		h.clk.RunFor(3 * time.Second)
		if _, stopped := h.srv.gradeLevel(fakeClient, "v"); stopped {
			break
		}
	}
	if _, stopped := h.srv.gradeLevel(fakeClient, "v"); !stopped {
		t.Fatal("video never cut off")
	}
	// While cut off, the sender withholds frames.
	base := vPkts
	h.clk.RunFor(3 * time.Second)
	if vPkts > base {
		t.Fatalf("cut-off stream still transmitting: %d → %d", base, vPkts)
	}
	// Clean reports restore it and transmission resumes (the loss EWMA
	// must decay below the upgrade threshold, then the hold must pass).
	for i := 0; i < 25; i++ {
		rr := rtp.ReceiverReport{SSRC: 1, Reports: []rtp.ReceptionReport{{SSRC: videoSSRC}}}
		h.send(protocol.MsgFeedback, &protocol.Feedback{RTCP: rr.AppendTo(nil)})
		h.clk.RunFor(3 * time.Second)
		if _, stopped := h.srv.gradeLevel(fakeClient, "v"); !stopped {
			break
		}
	}
	base = vPkts
	h.clk.RunFor(3 * time.Second)
	if vPkts <= base {
		t.Fatal("restored stream not transmitting")
	}
}

func TestMinIntHelper(t *testing.T) {
	if minInt(0, 5) != 5 || minInt(-1, 5) != 5 {
		t.Fatal("non-positive floor must fall back")
	}
	if minInt(3, 5) != 3 || minInt(7, 5) != 5 {
		t.Fatal("min wrong")
	}
}

func TestPricingClassSanity(t *testing.T) {
	if qos.Premium.ShareCap() != 1 {
		t.Fatal("premium cap")
	}
}

// ParsePlacement reads the -placement flag: outside input, so every
// malformed entry is an error rather than a silently different map.
func TestParsePlacement(t *testing.T) {
	p, err := ParsePlacement(" lec = a + b ,, cold=c")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Replicas("lec"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("lec replicas = %v, want [a b] in order", got)
	}
	if got := p.Replicas("cold"); len(got) != 1 || got[0] != "c" {
		t.Fatalf("cold replicas = %v, want [c]", got)
	}
	for _, bad := range []string{
		"lec",           // no '='
		"=a",            // no document
		"lec=+",         // no replicas
		"lec=a,lec=b",   // the same document placed twice
		"lec=a,lec=a+b", // ... even when one list extends the other
	} {
		if p, err := ParsePlacement(bad); err == nil {
			t.Errorf("ParsePlacement(%q) = %v, want an error", bad, p)
		}
	}
}
