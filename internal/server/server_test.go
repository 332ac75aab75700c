package server

import (
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

func TestDatabasePutGetValidation(t *testing.T) {
	db := NewDatabase()
	if err := db.Put("fig2", hml.Figure2Source, "the figure 2 scenario"); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("bad", "<broken", ""); err == nil {
		t.Fatal("bad doc accepted")
	}
	if err := db.Put("invalid", `<TITLE>t</TITLE><AU ID=x STARTIME=0 DURATION=1> </AU>`, ""); err == nil {
		t.Fatal("semantically invalid doc accepted")
	}
	d, ok := db.Get("fig2")
	if !ok || d.Scenario == nil || d.Doc.Title != "Figure 2 scenario" {
		t.Fatalf("get = %+v %v", d, ok)
	}
	if _, ok := db.Get("missing"); ok {
		t.Fatal("phantom doc")
	}
	if db.Len() != 1 {
		t.Fatalf("len = %d", db.Len())
	}
	if names := db.Names(); len(names) != 1 || names[0] != "fig2" {
		t.Fatalf("names = %v", names)
	}
}

func TestDatabaseTopics(t *testing.T) {
	db := NewDatabase()
	db.Put("b-doc", `<TITLE>Beta</TITLE><TEXT>x</TEXT>`, "second")
	db.Put("a-doc", `<TITLE>Alpha</TITLE><TEXT>y</TEXT>`, "first")
	tops := db.Topics("srv")
	if len(tops) != 2 || tops[0].Name != "a-doc" || tops[1].Name != "b-doc" {
		t.Fatalf("topics = %+v", tops)
	}
	if tops[0].Server != "srv" || tops[0].Title != "Alpha" {
		t.Fatalf("topic 0 = %+v", tops[0])
	}
	// The listing is kept until the catalogue changes.
	if a, b := db.TopicsFrame("srv"), db.TopicsFrame("srv"); &a[0] != &b[0] {
		t.Fatal("listing rebuilt with the catalogue unchanged")
	}
	db.Put("c-doc", `<TITLE>Gamma</TITLE><TEXT>z</TEXT>`, "third")
	if tops = db.Topics("srv"); len(tops) != 3 || tops[2].Name != "c-doc" {
		t.Fatalf("topics after Put = %+v", tops)
	}
	if tops = db.Topics("other"); tops[0].Server != "other" {
		t.Fatalf("topics for another server = %+v", tops)
	}
}

func TestDatabaseSearchFields(t *testing.T) {
	db := NewDatabase()
	db.Put("t1", `<TITLE>Databases</TITLE><TEXT>intro</TEXT>`, "")
	db.Put("t2", `<TITLE>Other</TITLE><H1>Database systems</H1><TEXT>x</TEXT>`, "")
	db.Put("t3", `<TITLE>Misc</TITLE><TEXT>all about databases here</TEXT>`, "")
	db.Put("t4", `<TITLE>Nope</TITLE><TEXT>unrelated</TEXT>`, "database lab notes")
	db.Put("t5", `<TITLE>None</TITLE><TEXT>nothing</TEXT>`, "")
	hits := db.Search("database", "s")
	if len(hits) != 4 {
		t.Fatalf("hits = %+v", hits)
	}
	if len(db.Search("", "s")) != 0 {
		t.Fatal("empty token matched")
	}
	if len(db.Search("DATABASE", "s")) != 4 {
		t.Fatal("search not case-insensitive")
	}
}

// harness for direct server-level tests.
type harness struct {
	clk   *clock.Virtual
	net   *netsim.Network
	users *auth.DB
	scope *obs.Scope
	srv   *Server
	// captured replies to the fake client address
	replies []struct {
		mt   protocol.MsgType
		body []byte
	}
}

const fakeClient = netsim.Addr("fake:6000")

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	users := auth.NewDB()
	users.Subscribe(auth.User{Name: "u", Password: "p", Email: "u@x", Class: qos.Standard}, clk.Now())
	db := NewDatabase()
	db.Put("doc", hml.Figure2Source, "")
	if opts.Obs == nil {
		opts.Obs = obs.NewScope(clk)
	}
	h := &harness{clk: clk, net: net, users: users, scope: opts.Obs}
	srv, err := New("srv", clk, net, users, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	net.Listen(fakeClient, func(p netsim.Packet) {
		mt, _, body, err := protocol.DecodeReq(p.Payload)
		if err == nil {
			// body views p.Payload, which the simulator recycles after this
			// handler returns: keep a copy.
			h.replies = append(h.replies, struct {
				mt   protocol.MsgType
				body []byte
			}{mt, append([]byte(nil), body...)})
		}
	})
	return h
}

// mustFrame encodes a control frame for the tests' fake clients.
func mustFrame(t protocol.MsgType, reqID uint32, body protocol.Message) []byte {
	b, err := protocol.NewFrame(t, reqID, body)
	if err != nil {
		panic(err)
	}
	return b
}

func (h *harness) send(t protocol.MsgType, body protocol.Message) {
	h.net.Send(netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: mustFrame(t, 0, body), Reliable: true,
	})
	h.clk.RunFor(time.Second)
}

func (h *harness) lastReply(t *testing.T, want protocol.MsgType, out protocol.Message) {
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

func TestServerConnectAuthAndAdmission(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK || cr.SessionID == "" {
		t.Fatalf("connect = %+v", cr)
	}
	if h.srv.Sessions() != 1 {
		t.Fatal("no session")
	}
	// Unknown user → subscription prompt.
	h.send(protocol.MsgConnect, &protocol.Connect{User: "ghost"})
	var cr2 protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr2)
	if cr2.OK || !cr2.NeedSubscription {
		t.Fatalf("ghost connect = %+v", cr2)
	}
	// Bad password → refusal without subscription prompt.
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "wrong"})
	var cr3 protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr3)
	if cr3.OK || cr3.NeedSubscription {
		t.Fatalf("bad password = %+v", cr3)
	}
}

func TestServerDocRequestWithoutSession(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc"})
	var dr protocol.DocResponse
	h.lastReply(t, protocol.MsgDocResponse, &dr)
	if dr.OK {
		t.Fatal("doc served without a session")
	}
}

func TestServerDocResponseAnnouncesAllStreams(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300})
	var dr protocol.DocResponse
	h.lastReply(t, protocol.MsgDocResponse, &dr)
	if !dr.OK || dr.Name != "doc" {
		t.Fatalf("doc response = %+v", dr)
	}
	// Figure 2 has 5 timed streams.
	if len(dr.Streams) != 5 {
		t.Fatalf("streams = %d", len(dr.Streams))
	}
	ports := map[int]bool{}
	ssrcs := map[uint32]bool{}
	for _, s := range dr.Streams {
		if s.Port < 9000 || ports[s.Port] {
			t.Fatalf("bad/duplicate port %d", s.Port)
		}
		if ssrcs[s.SSRC] {
			t.Fatalf("duplicate ssrc %d", s.SSRC)
		}
		ports[s.Port] = true
		ssrcs[s.SSRC] = true
		if s.Levels < 1 || s.Rate <= 0 || s.FrameIntervalUS <= 0 {
			t.Fatalf("announce = %+v", s)
		}
	}
	if !hasRetrieval(h.users.AccessLog("u"), "doc") {
		t.Fatal("retrieval not logged")
	}
}

func hasRetrieval(log []auth.AccessEntry, doc string) bool {
	for _, e := range log {
		if e.Kind == auth.AccessRetrieve && e.Detail == doc {
			return true
		}
	}
	return false
}

func TestServerSuspendGraceExpiry(t *testing.T) {
	h := newHarness(t, Options{Grace: 5 * time.Second})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgSuspend, &protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	if !sr.OK || sr.ResumeToken == "" || sr.GraceSecs != 5 {
		t.Fatalf("suspend = %+v", sr)
	}
	if h.srv.Sessions() != 1 {
		t.Fatal("session dropped on suspend")
	}
	h.clk.RunFor(6 * time.Second)
	if h.srv.Sessions() != 0 {
		t.Fatal("session survived grace expiry")
	}
	var em protocol.ErrorMsg
	h.lastReply(t, protocol.MsgError, &em)
	if em.Msg == "" {
		t.Fatal("client not informed of expiry")
	}
	// Resuming with the stale token fails.
	h.send(protocol.MsgConnect, &protocol.Connect{ResumeToken: sr.ResumeToken})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if cr.OK {
		t.Fatal("stale token accepted")
	}
}

func TestServerResumeWithinGrace(t *testing.T) {
	h := newHarness(t, Options{Grace: 30 * time.Second})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgSuspend, &protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	h.clk.RunFor(10 * time.Second)
	h.send(protocol.MsgConnect, &protocol.Connect{ResumeToken: sr.ResumeToken})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK {
		t.Fatalf("resume failed: %+v", cr)
	}
	if h.srv.Sessions() != 1 {
		t.Fatal("session lost")
	}
	// Admission was NOT consulted a second time: one reservation only.
	if adm, _, _ := h.srv.Admission().Counts(qos.Standard); adm != 1 {
		t.Fatalf("admissions = %d", adm)
	}
}

func TestServerDisconnectChargesAndReleases(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	reserved := h.srv.Admission().Utilization()
	if reserved <= 0 {
		t.Fatal("nothing reserved")
	}
	h.clk.RunFor(10 * time.Second)
	h.send(protocol.MsgDisconnect, &protocol.Disconnect{})
	if h.srv.Admission().Utilization() != 0 {
		t.Fatal("reservation not released")
	}
	if h.users.Balance("u") <= 0 {
		t.Fatal("no charge")
	}
	if h.srv.Sessions() != 0 {
		t.Fatal("session lingers")
	}
}

func TestServerAnnotateLogged(t *testing.T) {
	h := newHarness(t, Options{})
	h.send(protocol.MsgConnect, &protocol.Connect{User: "u", Password: "p"})
	h.send(protocol.MsgDocRequest, &protocol.DocRequest{Name: "doc"})
	h.send(protocol.MsgAnnotate, &protocol.Annotate{Text: "great slide"})
	found := false
	for _, e := range h.users.AccessLog("u") {
		if e.Kind == auth.AccessRetrieve && e.Detail == "annotate doc: great slide" {
			found = true
		}
	}
	if !found {
		t.Fatal("annotation not logged")
	}
}

func TestServerMalformedPacketsIgnored(t *testing.T) {
	h := newHarness(t, Options{})
	h.net.Send(netsim.Packet{From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: []byte{}, Reliable: true})
	h.net.Send(netsim.Packet{From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: []byte{byte(protocol.MsgConnect), '{', 'x'}, Reliable: true})
	h.clk.RunFor(time.Second)
	if h.srv.Sessions() != 0 {
		t.Fatal("session from garbage")
	}
}

func TestQoSManagerUnknownClient(t *testing.T) {
	h := newHarness(t, Options{})
	if h.srv.QoSManager(netsim.Addr("nobody:1")) != nil {
		t.Fatal("phantom manager")
	}
}

// A caller's partial grading policy must reach each session's grader
// unchanged: a zero field means the paper's value, not "replace the whole
// policy with the default".
func TestServerPolicyReachesGrader(t *testing.T) {
	const hold = 500 * time.Millisecond
	h := newHarness(t, Options{Policy: qos.Policy{UpgradeHold: hold}})
	connectAndRequest(t, h)
	mgr := h.srv.QoSManager(fakeClient)
	if mgr == nil {
		t.Fatal("no grader for the session")
	}
	mgr.Register(qos.StreamConfig{ID: "probe", Kind: scenario.TypeVideo, Levels: 3})
	if acts := mgr.Feedback(qos.Report{StreamID: "probe", Loss: 0.5}); len(acts) != 1 || acts[0].Kind != qos.ActDegrade {
		t.Fatalf("bad report: actions %+v, want one degrade", acts)
	}
	// Clean reports decay the smoothed loss (0.5 × 0.7^20) far below the
	// upgrade threshold; the hold then runs from the first of them.
	for i := 0; i < 20; i++ {
		mgr.Feedback(qos.Report{StreamID: "probe"})
	}
	h.clk.RunFor(hold + 100*time.Millisecond)
	if acts := mgr.Feedback(qos.Report{StreamID: "probe"}); len(acts) != 1 || acts[0].Kind != qos.ActUpgrade {
		t.Fatalf("good conditions past a %v hold: actions %+v, want one upgrade", hold, acts)
	}
}
