package protocol

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/qos"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Connect{User: "alice", Password: "pw", Class: qos.Premium, PeakRate: 2e6, MinRate: 5e5, FloorLevel: 3}
	buf, err := EncodeReq(MsgConnect, 0, in)
	if err != nil {
		t.Fatal(err)
	}
	mt, body, err := Decode(buf)
	if err != nil || mt != MsgConnect {
		t.Fatalf("decode: %v %v", mt, err)
	}
	var out Connect
	if err := DecodeBody(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestEncodeReqRoundTripsRequestID(t *testing.T) {
	in := Heartbeat{SessionID: "s-1"}
	buf := MustEncodeReq(MsgHeartbeat, 0xDEADBEEF, in)
	mt, reqID, body, err := DecodeReq(buf)
	if err != nil || mt != MsgHeartbeat || reqID != 0xDEADBEEF {
		t.Fatalf("decode: %v %d %v", mt, reqID, err)
	}
	var out Heartbeat
	if err := DecodeBody(body, &out); err != nil || out != in {
		t.Fatalf("round trip: %+v (%v)", out, err)
	}
	// Plain Encode produces the fire-and-forget request ID 0, and plain
	// Decode reads EncodeReq frames (dropping the ID).
	if _, reqID, _, _ := DecodeReq(MustEncode(MsgHeartbeat, in)); reqID != 0 {
		t.Fatalf("Encode reqID = %d, want 0", reqID)
	}
	if mt, _, err := Decode(buf); err != nil || mt != MsgHeartbeat {
		t.Fatalf("Decode on EncodeReq frame: %v %v", mt, err)
	}
}

// A body encoding/json refuses, NaN or ±Inf, fails to encode: EncodeReq
// returns the error and MustEncode panics.
func TestMustEncodePanicsOnUnmarshalable(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		body := Connect{User: "u", PeakRate: f}
		if _, err := json.Marshal(body); err == nil {
			t.Fatalf("oracle accepts %v", f)
		}
		if _, err := EncodeReq(MsgConnect, 1, body); err == nil {
			t.Fatalf("EncodeReq accepts %v", f)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MustEncode of %v: no panic", f)
				}
			}()
			MustEncode(MsgConnect, body)
		}()
	}
}

func TestDocResponseRoundTrip(t *testing.T) {
	in := DocResponse{
		OK:          true,
		ScenarioSrc: "<TITLE>x</TITLE>",
		Streams: []StreamAnnounce{
			{StreamID: "v", SSRC: 42, Port: 5004, PayloadType: 32, Rate: 1.5e6, FrameIntervalUS: 40000, Levels: 5},
		},
	}
	buf := MustEncode(MsgDocResponse, in)
	_, body, _ := Decode(buf)
	var out DocResponse
	if err := DecodeBody(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Streams[0] != in.Streams[0] || out.ScenarioSrc != in.ScenarioSrc {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestMsgTypeNames(t *testing.T) {
	// The slot after resume is reserved (the retired reload), so every
	// later tag keeps its wire value; it prints as an unknown type.
	const retired = MsgResume + 1
	for mt := MsgConnect; mt <= MsgHeartbeatAck; mt++ {
		if named := !strings.HasPrefix(mt.String(), "msg-"); named == (mt == retired) {
			t.Fatalf("type %d (%s): named %v", mt, mt, named)
		}
	}
	if MsgDisableMedia != 14 || MsgHeartbeatAck != 26 {
		t.Fatalf("wire tags moved: disable-media %d, heartbeat-ack %d", MsgDisableMedia, MsgHeartbeatAck)
	}
	if MsgType(200).String() != "msg-200" {
		t.Fatal("unknown type name")
	}
	// Telemetry-off callers evaluate the name before any nil check.
	if got := testing.AllocsPerRun(100, func() { _ = MsgHeartbeatAck.String() }); got != 0 {
		t.Fatalf("MsgHeartbeatAck.String() = %v allocations, want 0", got)
	}
}

func TestHappyPathTransitions(t *testing.T) {
	m := &Machine{}
	seq := []struct {
		in   Input
		want State
	}{
		{InConnect, StConnecting},
		{InAuthNeedSubscribe, StSubscribing},
		{InSubscribed, StBrowsing},
		{InRequestDoc, StRequesting},
		{InDocReady, StViewing},
		{InPause, StPaused},
		{InResume, StViewing},
		{InPresentationEnd, StBrowsing},
		{InRequestDoc, StRequesting},
		{InRedirect, StSuspended},
		{InReturn, StBrowsing},
		{InDisconnect, StDisconnected},
	}
	for _, s := range seq {
		if err := m.Apply(s.in); err != nil {
			t.Fatalf("apply %v in %v: %v", s.in, m.State(), err)
		}
		if m.State() != s.want {
			t.Fatalf("after %v: state %v, want %v", s.in, m.State(), s.want)
		}
	}
}

func TestGraceExpiryPath(t *testing.T) {
	m := &Machine{}
	for _, in := range []Input{InConnect, InAuthOK, InRequestDoc, InRedirect, InGraceExpired} {
		if err := m.Apply(in); err != nil {
			t.Fatal(err)
		}
	}
	if m.State() != StDisconnected {
		t.Fatalf("state = %v", m.State())
	}
}

func TestIllegalTransitionsRejected(t *testing.T) {
	m := &Machine{}
	err := m.Apply(InPause)
	if err == nil {
		t.Fatal("pause in idle accepted")
	}
	te, ok := err.(*TransitionError)
	if !ok || te.From != StIdle || te.Input != InPause {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "illegal") {
		t.Fatalf("err text = %q", err)
	}
	// State unchanged after illegal input.
	if m.State() != StIdle {
		t.Fatal("state moved on illegal input")
	}
}

func TestDisconnectedIsTerminal(t *testing.T) {
	m := &Machine{}
	m.Apply(InConnect)
	m.Apply(InAuthOK)
	m.Apply(InDisconnect)
	for _, in := range Inputs() {
		if probe := *m; probe.Try(in) {
			t.Fatalf("input %v legal in disconnected", in)
		}
	}
}

func TestAuthRejectReturnsToIdle(t *testing.T) {
	m := &Machine{}
	m.Apply(InConnect)
	if err := m.Apply(InAuthReject); err != nil {
		t.Fatal(err)
	}
	if m.State() != StIdle {
		t.Fatalf("state = %v", m.State())
	}
	// Idle allows reconnect.
	if !m.Try(InConnect) {
		t.Fatal("cannot reconnect")
	}
}

func TestEveryStateReachable(t *testing.T) {
	// BFS over the edge table from StIdle must reach every state.
	reach := map[State]bool{StIdle: true}
	frontier := []State{StIdle}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, e := range Edges() {
			if e.From == s && !reach[e.To] {
				reach[e.To] = true
				frontier = append(frontier, e.To)
			}
		}
	}
	for _, s := range States() {
		if !reach[s] {
			t.Errorf("state %v unreachable", s)
		}
	}
}

func TestEveryEdgeDrivable(t *testing.T) {
	// For every edge in the table, a machine placed in the source state
	// (by replaying a path) must accept the input. Build paths by BFS.
	paths := map[State][]Input{StIdle: {}}
	frontier := []State{StIdle}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, e := range Edges() {
			if e.From != s {
				continue
			}
			if _, ok := paths[e.To]; !ok {
				paths[e.To] = append(append([]Input{}, paths[s]...), e.Input)
				frontier = append(frontier, e.To)
			}
		}
	}
	covered := 0
	for _, e := range Edges() {
		path, ok := paths[e.From]
		if !ok {
			t.Fatalf("no path to %v", e.From)
		}
		m := &Machine{}
		for _, in := range path {
			if err := m.Apply(in); err != nil {
				t.Fatalf("replay to %v: %v", e.From, err)
			}
		}
		if err := m.Apply(e.Input); err != nil {
			t.Fatalf("edge %v --%v--> %v: %v", e.From, e.Input, e.To, err)
		}
		if m.State() != e.To {
			t.Fatalf("edge %v --%v--> got %v, want %v", e.From, e.Input, m.State(), e.To)
		}
		covered++
	}
	if covered != len(Edges()) {
		t.Fatalf("covered %d/%d edges", covered, len(Edges()))
	}
}

func TestStateAndInputNames(t *testing.T) {
	for _, s := range States() {
		if s.String() == "unknown" {
			t.Errorf("state %d unnamed", s)
		}
	}
	for _, in := range Inputs() {
		if in.String() == "unknown" {
			t.Errorf("input %d unnamed", in)
		}
	}
	if State(99).String() != "unknown" || Input(99).String() != "unknown" {
		t.Fatal("out-of-range names")
	}
}

// Property: applying any input sequence never panics and either moves along
// a declared edge or leaves the state unchanged with an error.
func TestQuickMachineTotal(t *testing.T) {
	f := func(seq []uint8) bool {
		m := &Machine{}
		for _, raw := range seq {
			in := Input(int(raw) % len(Inputs()))
			before := m.State()
			err := m.Apply(in)
			if err != nil {
				if m.State() != before {
					return false
				}
				continue
			}
			found := false
			for _, e := range Edges() {
				if e.From == before && e.Input == in && e.To == m.State() {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
