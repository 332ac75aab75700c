package server

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// faultHarness is the direct-server harness with telemetry attached and
// request-ID framing on both directions.
type faultHarness struct {
	clk     *clock.Virtual
	net     *netsim.Network
	scope   *obs.Scope
	srv     *Server
	replies []struct {
		mt    protocol.MsgType
		reqID uint32
		body  []byte
	}
}

func newFaultHarness(t *testing.T, opts Options) *faultHarness {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	scope := obs.NewScope(clk)
	opts.Obs = scope
	users := auth.NewDB()
	users.Subscribe(auth.User{Name: "u", Password: "p", Email: "u@x", Class: qos.Standard}, clk.Now())
	db := NewDatabase()
	db.Put("doc", hml.Figure2Source, "")
	h := &faultHarness{clk: clk, net: net, scope: scope}
	srv, err := New("srv", clk, net, users, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	net.Listen(fakeClient, func(p netsim.Packet) {
		mt, reqID, body, err := protocol.DecodeReq(p.Payload)
		if err == nil {
			// body views p.Payload, which the simulator recycles after this
			// handler returns: keep a copy.
			h.replies = append(h.replies, struct {
				mt    protocol.MsgType
				reqID uint32
				body  []byte
			}{mt, reqID, append([]byte(nil), body...)})
		}
	})
	return h
}

func (h *faultHarness) sendReq(reqID uint32, t protocol.MsgType, body protocol.Message) {
	h.net.Send(netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: mustFrame(t, reqID, body), Reliable: true,
	})
	h.clk.RunFor(time.Second)
}

func (h *faultHarness) lastReply(t *testing.T, want protocol.MsgType, out protocol.Message) {
	t.Helper()
	for i := len(h.replies) - 1; i >= 0; i-- {
		if h.replies[i].mt == want {
			if err := protocol.DecodeBody(h.replies[i].body, out); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no %v reply among %d replies", want, len(h.replies))
}

func (h *faultHarness) connectAndPlay(t *testing.T) {
	t.Helper()
	h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK {
		t.Fatalf("connect = %+v", cr)
	}
	h.sendReq(2, protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300})
	var dr protocol.DocResponse
	h.lastReply(t, protocol.MsgDocResponse, &dr)
	if !dr.OK {
		t.Fatalf("doc = %+v", dr)
	}
}

// The suspend → grace-expiry path must give the reserved admission
// bandwidth back to the pool and close the session.
func TestSuspendGraceExpiryReleasesAdmission(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: 2 * time.Second})
	h.connectAndPlay(t)
	if h.srv.Admission().Utilization() == 0 {
		t.Fatal("no admission reservation after connect")
	}
	h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil || !sess.suspended() {
		unlock()
		t.Fatal("session not suspended")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if !snd.isPaused() {
			t.Fatalf("sender %s not paused while suspended", snd.stream.ID)
		}
	}
	h.clk.RunFor(3 * time.Second) // grace (2s) runs out
	if n := h.srv.Sessions(); n != 0 {
		t.Fatalf("sessions after grace expiry = %d, want 0", n)
	}
	if r := h.srv.Admission().Utilization(); r != 0 {
		t.Fatalf("reserved after grace expiry = %v, want 0", r)
	}
}

// Recovering a session before the grace deadline must restore every parked
// sender and keep the admission reservation intact.
func TestResumeBeforeExpiryRestoresSenders(t *testing.T) {
	// No heartbeats here: keep the recovered session off the liveness sweep.
	h := newFaultHarness(t, Options{Grace: 10 * time.Second, LivenessMisses: 100})
	h.connectAndPlay(t)
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	reserved := h.srv.Admission().Utilization()
	h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	if !sr.OK || sr.ResumeToken == "" {
		t.Fatalf("suspend = %+v", sr)
	}
	// The user recovers the session from a different address within the
	// grace window.
	const cl2 = netsim.Addr("fake2:6000")
	h.net.Send(netsim.Packet{
		From: cl2, To: netsim.MakeAddr("srv", ControlPort),
		Payload: protocol.MustEncodeReq(protocol.MsgConnect, 4,
			protocol.Connect{User: "u", ResumeSession: cr.SessionID}),
		Reliable: true,
	})
	h.clk.RunFor(time.Second)
	sess, unlock := h.srv.lockedSession(cl2)
	if sess == nil || sess.state.State() != protocol.StViewing {
		unlock()
		t.Fatalf("session not reattached to %s", cl2)
	}
	if len(sess.senders) == 0 {
		unlock()
		t.Fatal("no senders survived the suspend/resume cycle")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if snd.isPaused() {
			t.Fatalf("sender %s still paused after resume", snd.stream.ID)
		}
	}
	if r := h.srv.Admission().Utilization(); r != reserved {
		t.Fatalf("reserved changed across suspend/resume: %v → %v", reserved, r)
	}
	// The old grace timer must not fire later and kill the resumed session.
	h.clk.RunFor(15 * time.Second)
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions after resumed run = %d, want 1", n)
	}
}

// A client that heartbeats and then goes silent is auto-suspended by its
// liveness timer at the last heartbeat's arrival plus the miss window, to
// the nanosecond, though that heartbeat came half a beat off the first
// one's rhythm; the normal grace expiry closes it afterwards.
func TestLivenessSweepAutoSuspendsSilentClient(t *testing.T) {
	opts := Options{Grace: 5 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3}
	h := newFaultHarness(t, opts)
	h.connectAndPlay(t)
	beat := func() {
		h.net.Send(netsim.Packet{
			From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
			Payload:  protocol.MustEncodeReq(protocol.MsgHeartbeat, 0, protocol.Heartbeat{}),
			Reliable: true,
		})
	}
	beat()
	h.clk.RunFor(1500 * time.Millisecond)
	var ack protocol.HeartbeatAck
	h.lastReply(t, protocol.MsgHeartbeatAck, &ack)
	if !ack.OK {
		t.Fatalf("heartbeat ack = %+v", ack)
	}
	beat()
	h.clk.RunFor(time.Second)
	sess, unlock := h.srv.lockedSession(fakeClient)
	arrived := sess.lastBeat
	unlock()
	// Silence: past the miss budget the session is suspended.
	h.clk.RunFor(5 * time.Second)
	sess, unlock = h.srv.lockedSession(fakeClient)
	suspended := sess != nil && sess.suspended()
	unlock()
	if !suspended {
		t.Fatal("silent session not auto-suspended")
	}
	if got := h.scope.Counter("server_sessions_suspended_liveness").Value(); got != 1 {
		t.Fatalf("liveness suspend counter = %d, want 1", got)
	}
	want := arrived.Add(time.Duration(opts.LivenessMisses) * opts.HeartbeatEvery)
	var at []time.Time
	for _, e := range h.scope.Trace().Events() {
		if e.Kind == obs.EvLiveness {
			at = append(at, e.At)
		}
	}
	if len(at) != 1 || !at[0].Equal(want) {
		t.Fatalf("liveness events at %v, want one at %v (last heartbeat's arrival + %d × %v)",
			at, want, opts.LivenessMisses, opts.HeartbeatEvery)
	}
	// Grace then expires and the session closes fully.
	h.clk.RunFor(6 * time.Second)
	if n := h.srv.Sessions(); n != 0 {
		t.Fatalf("sessions after grace = %d, want 0", n)
	}
	if r := h.srv.Admission().Utilization(); r != 0 {
		t.Fatalf("reserved after grace = %v, want 0", r)
	}
}

// A lost reply must be counted and traced, not silently ignored.
func TestReplySendFailureCounted(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.net.DropNext("srv", "fake", 1)
	h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	if got := h.scope.Counter("server_reply_send_failures").Value(); got != 1 {
		t.Fatalf("send-failure counter = %d, want 1", got)
	}
	found := false
	for _, e := range h.scope.Trace().Events() {
		if e.Kind == obs.EvSendFailure {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvSendFailure trace event")
	}
}

// A storm of rejected connects (bad credentials, each from a distinct
// address with a fresh request ID) must not grow the dedup map without
// bound: rings of clients that never obtained a session are TTL-swept,
// while a connected client's ring survives.
func TestRejectStormDoesNotLeakDedupRings(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.connectAndPlay(t)
	const storm = 50
	for i := 0; i < storm; i++ {
		h.net.Send(netsim.Packet{
			From: netsim.MakeAddr(fmt.Sprintf("evil%d", i), 6000),
			To:   netsim.MakeAddr("srv", ControlPort),
			Payload: protocol.MustEncodeReq(protocol.MsgConnect, uint32(100+i),
				protocol.Connect{User: "u", Password: "wrong"}),
			Reliable: true,
		})
	}
	h.clk.RunFor(time.Second)
	grown := h.srv.DedupLen()
	if grown < storm {
		t.Fatalf("dedup rings after storm = %d, want ≥ %d", grown, storm)
	}
	// Past the TTL every sessionless ring is evicted.
	h.clk.RunFor(3 * dedupTTL)
	left := h.srv.DedupLen()
	clientSurvives := h.srv.dedupHas(fakeClient)
	if left != 1 || !clientSurvives {
		t.Fatalf("dedup rings after the TTL = %d (client survives=%v), want only the live client's",
			left, clientSurvives)
	}
	// The live session must still dedup retransmissions after the TTL.
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
}

// Fire-and-forget media ops arriving for a suspended session must be
// ignored: a delayed resume must not restart senders the suspend machinery
// paused, or the grace/resume bookkeeping would desynchronize from what is
// actually on the wire.
func TestMediaOpsIgnoredWhileSuspended(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: time.Minute})
	h.connectAndPlay(t)
	h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	if !sr.OK {
		t.Fatalf("suspend = %+v", sr)
	}
	// Delayed media ops from the suspended client's address.
	h.sendReq(0, protocol.MsgResume, &protocol.MediaOp{})
	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil || !sess.suspended() {
		unlock()
		t.Fatal("session no longer suspended")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if !snd.isPaused() {
			t.Fatalf("sender %s woken by a media op while suspended", snd.stream.ID)
		}
	}
	// The legitimate resume path still works afterwards.
	h.sendReq(4, protocol.MsgConnect, &protocol.Connect{ResumeToken: sr.ResumeToken})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK || !cr.Resumed {
		t.Fatalf("resume = %+v", cr)
	}
}

// Every (state, input) pair the server can observe and Figure 4 refuses is
// counted once and traced, leaves the session where it was, and is answered
// exactly as before the server ran the table: fire-and-forget ops get no
// reply, a document request "no active session", and a second suspend a
// fresh token and grace period.
func TestIllegalInputsCounted(t *testing.T) {
	suspend := func(h *faultHarness, t *testing.T) {
		h.connectAndPlay(t)
		h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	}
	for _, tc := range []struct {
		name  string
		setup func(h *faultHarness, t *testing.T)
		state protocol.State
		in    protocol.Input
		mt    protocol.MsgType
		body  protocol.Message
		want  []byte // the reply frame; nil for none
	}{
		{"resume while viewing", (*faultHarness).connectAndPlay, protocol.StViewing, protocol.InResume,
			protocol.MsgResume, &protocol.MediaOp{}, nil},
		{"pause while browsing", func(h *faultHarness, t *testing.T) {
			h.sendReq(1, protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
		}, protocol.StBrowsing, protocol.InPause, protocol.MsgPause, &protocol.MediaOp{}, nil},
		{"doc request while suspended", suspend, protocol.StSuspended, protocol.InRequestDoc,
			protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300},
			[]byte("\x0a\x00\x00\x00\x04{\"ok\":false,\"reason\":\"no active session\"}")},
		{"second suspend", suspend, protocol.StSuspended, protocol.InRedirect,
			protocol.MsgSuspend, &protocol.Suspend{},
			[]byte("\x11\x00\x00\x00\x04{\"ok\":true,\"resumeToken\":\"srv-tok-3\",\"graceSecs\":60}")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFaultHarness(t, Options{Grace: time.Minute})
			tc.setup(h, t)
			state := func() protocol.State {
				sess, unlock := h.srv.lockedSession(fakeClient)
				defer unlock()
				return sess.state.State()
			}
			if got := state(); got != tc.state {
				t.Fatalf("state before the input = %v, want %v", got, tc.state)
			}
			replies := len(h.replies)
			var reqID uint32
			if tc.want != nil {
				reqID = 4
			}
			h.sendReq(reqID, tc.mt, tc.body)
			if got := h.scope.Counter("server_illegal_inputs").Value(); got != 1 {
				t.Fatalf("server_illegal_inputs = %d, want 1", got)
			}
			var traced []obs.Event
			for _, e := range h.scope.Trace().Events() {
				if e.Kind == obs.EvIllegalInput {
					traced = append(traced, e)
				}
			}
			if len(traced) != 1 || traced[0].Value != int64(tc.in) {
				t.Fatalf("illegal-input trace = %+v, want one event for %v", traced, tc.in)
			}
			if got := state(); got != tc.state {
				t.Fatalf("state after the input = %v, want %v", got, tc.state)
			}
			var got []byte
			for _, r := range h.replies[replies:] {
				if got != nil {
					t.Fatalf("more than one reply: %+v", h.replies[replies:])
				}
				got = append(binary.BigEndian.AppendUint32([]byte{byte(r.mt)}, r.reqID), r.body...)
			}
			if string(got) != string(tc.want) {
				t.Fatalf("reply = %q, want %q", got, tc.want)
			}
		})
	}
}

// A second suspend replaces the resume token: the first one no longer
// reaches the session, so it cannot outlive the session in the token index.
func TestSecondSuspendRetiresFirstToken(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: time.Minute})
	h.connectAndPlay(t)
	var first, second protocol.SuspendResult
	h.sendReq(3, protocol.MsgSuspend, &protocol.Suspend{})
	h.lastReply(t, protocol.MsgSuspendResult, &first)
	h.sendReq(4, protocol.MsgSuspend, &protocol.Suspend{})
	h.lastReply(t, protocol.MsgSuspendResult, &second)
	if first.ResumeToken == second.ResumeToken {
		t.Fatalf("both suspends returned %q", first.ResumeToken)
	}
	var cr protocol.ConnectResult
	h.sendReq(5, protocol.MsgConnect, &protocol.Connect{ResumeToken: first.ResumeToken})
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if cr.OK {
		t.Fatalf("the replaced token %q still resumes the session", first.ResumeToken)
	}
	h.sendReq(6, protocol.MsgConnect, &protocol.Connect{ResumeToken: second.ResumeToken})
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK || !cr.Resumed {
		t.Fatalf("return with the current token = %+v", cr)
	}
}

// A retransmitted request (same request ID) must not re-run its handler:
// the cached reply is re-sent instead.
func TestDuplicateRequestDeduped(t *testing.T) {
	h := newFaultHarness(t, Options{})
	frame := protocol.MustEncodeReq(protocol.MsgConnect, 7,
		protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	for i := 0; i < 2; i++ {
		h.net.Send(netsim.Packet{
			From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
			Payload: frame, Reliable: true,
		})
		h.clk.RunFor(time.Second)
	}
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions = %d, want 1 (duplicate connect re-admitted)", n)
	}
	if got := h.scope.Counter("server_ctrl_dedup_hits").Value(); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
	var ids []string
	for _, r := range h.replies {
		if r.mt == protocol.MsgConnectResult {
			var cr protocol.ConnectResult
			if err := protocol.DecodeBody(r.body, &cr); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, cr.SessionID)
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("connect replies = %v, want the cached reply re-sent with the same session", ids)
	}
}

// TestMalformedRequestCounted: a request that is too short, whose body
// fails to decode, or whose tag names no message type is dropped like a
// lost packet, but counted and traced.
func TestMalformedRequestCounted(t *testing.T) {
	h := newFaultHarness(t, Options{})
	frame := append(mustFrame(protocol.MsgConnect, 1, &protocol.Connect{})[:5], "{bad json"...)
	h.net.Send(netsim.Packet{From: fakeClient, To: netsim.MakeAddr("srv", ControlPort), Payload: frame, Reliable: true})
	h.net.Send(netsim.Packet{From: fakeClient, To: netsim.MakeAddr("srv", ControlPort), Payload: frame[:3], Reliable: true})
	unnamed := mustFrame(protocol.MsgConnect, 2, &protocol.Connect{User: "guest"})
	unnamed[0] = byte(protocol.MsgResume + 1) // tag 13, the reserved slot
	h.net.Send(netsim.Packet{From: fakeClient, To: netsim.MakeAddr("srv", ControlPort), Payload: unnamed, Reliable: true})
	h.clk.RunFor(time.Second)

	if got := h.scope.Counter("server_ctrl_decode_errors").Value(); got != 3 {
		t.Fatalf("server_ctrl_decode_errors = %d, want 3", got)
	}
	if len(h.replies) != 0 {
		t.Fatalf("replies = %+v, want none", h.replies)
	}
	n := 0
	for _, e := range h.scope.Trace().Events() {
		if e.Kind == obs.EvCtrlDecodeError {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d decode-error trace events, want 3", n)
	}
}
