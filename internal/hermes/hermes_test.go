package hermes

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

// simulated builds a deployment for a happy-path test: by the end of it,
// no server may have refused a Figure 4 input.
func simulated(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := NewSimulated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n := svc.fed.CounterTotal("server_illegal_inputs"); n != 0 {
			t.Errorf("servers refused %d Figure 4 inputs", n)
		}
	})
	return svc
}

func twoServerService(t *testing.T) *Service {
	t.Helper()
	return simulated(t, Config{
		Servers: []ServerSpec{
			{Name: "hermes-a", Lessons: MakeCourse("algo", 2, 2, 8*time.Second)},
			{Name: "hermes-b", Lessons: MakeCourse("nets", 1, 2, 8*time.Second)},
		},
	})
}

func TestMakeCourseStructure(t *testing.T) {
	lessons := MakeCourse("db", 3, 4, 10*time.Second)
	if len(lessons) != 3 {
		t.Fatalf("lessons = %d", len(lessons))
	}
	for i, l := range lessons {
		sc, err := scenario.Parse(l.Source)
		if err != nil {
			t.Fatalf("lesson %d: %v", i, err)
		}
		if got := len(sc.SyncGroups()); got != 4 {
			t.Fatalf("lesson %d sync groups = %d", i, got)
		}
		link := sc.NextTimedLink(0)
		if i < 2 {
			if link == nil || link.Target != lessons[i+1].Name {
				t.Fatalf("lesson %d link = %+v", i, link)
			}
		} else if link != nil {
			t.Fatalf("last lesson has a timed link: %+v", link)
		}
	}
}

func TestEnrollAndBrowseLesson(t *testing.T) {
	svc := twoServerService(t)
	if err := svc.Enroll("maria", "pw", qos.Standard); err != nil {
		t.Fatal(err)
	}
	b := svc.NewBrowser("maria", "pw", client.Options{})
	b.Connect("hermes-a")
	svc.Run(time.Second)
	if lc := b.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("connect = %+v", lc)
	}
	b.RequestTopics()
	svc.Run(time.Second)
	if got := len(b.Topics()); got != 2 {
		t.Fatalf("topics = %d", got)
	}
	b.RequestDoc("algo-L1")
	svc.Run(5 * time.Second)
	if b.State("hermes-a") != protocol.StViewing {
		t.Fatalf("state = %v", b.State("hermes-a"))
	}
	svc.Run(30 * time.Second)
	rep := b.Player().Report()
	if rep.Streams["algou1v0"].Plays == 0 {
		t.Fatal("first slide video never played")
	}
}

func TestCourseAutoAdvance(t *testing.T) {
	svc := twoServerService(t)
	svc.Enroll("nikos", "pw", qos.Standard)
	b := svc.NewBrowser("nikos", "pw", client.Options{AutoFollowLinks: true})
	b.Connect("hermes-a")
	svc.Run(time.Second)
	b.RequestDoc("algo-L1")
	// Lesson 1 is 16s + link at 16s; run long enough for both units.
	svc.Run(60 * time.Second)
	hist := b.History()
	if len(hist) != 2 || hist[0] != "algo-L1" || hist[1] != "algo-L2" {
		t.Fatalf("history = %v", hist)
	}
}

func TestFederatedSearchAcrossHermesServers(t *testing.T) {
	svc := twoServerService(t)
	svc.Enroll("eva", "pw", qos.Standard)
	b := svc.NewBrowser("eva", "pw", client.Options{})
	b.Connect("hermes-a")
	svc.Run(time.Second)
	b.Search("nets")
	svc.Run(3 * time.Second)
	hits, done := b.SearchResults()
	if !done || len(hits) != 1 || hits[0].Server != "hermes-b" {
		t.Fatalf("hits = %+v done=%v", hits, done)
	}
}

func TestTutorInteraction(t *testing.T) {
	svc := twoServerService(t)
	if err := svc.AskTutor("maria@students.example.gr", "Unit 2 question", "What is a sync group?"); err != nil {
		t.Fatal(err)
	}
	box := svc.Mail.Spool.Mailbox("tutor@cti.gr")
	if len(box) != 1 || !strings.Contains(box[0].Body, "sync group") {
		t.Fatalf("tutor box = %+v", box)
	}
	if err := svc.TutorReply("maria@students.example.gr", "Re: Unit 2 question", "Retrieve lesson algo-L2."); err != nil {
		t.Fatal(err)
	}
	sbox := svc.Mail.Spool.Mailbox("maria@students.example.gr")
	if len(sbox) != 1 || !strings.Contains(sbox[0].Body, "algo-L2") {
		t.Fatalf("student box = %+v", sbox)
	}
}

func TestTwoStudentsConcurrently(t *testing.T) {
	svc := twoServerService(t)
	svc.Enroll("s1", "pw", qos.Standard)
	svc.Enroll("s2", "pw", qos.Premium)
	b1 := svc.NewBrowser("s1", "pw", client.Options{})
	b2 := svc.NewBrowser("s2", "pw", client.Options{})
	if b1.Host == b2.Host {
		t.Fatal("browsers share a host")
	}
	b1.Connect("hermes-a")
	b2.Connect("hermes-a")
	svc.Run(time.Second)
	b1.RequestDoc("algo-L1")
	b2.RequestDoc("algo-L2")
	svc.Run(30 * time.Second)
	r1 := b1.Player().Report()
	r2 := b2.Player().Report()
	if r1.Streams["algou1a0"].Plays == 0 || r2.Streams["algou2a0"].Plays == 0 {
		t.Fatalf("concurrent sessions: %d / %d plays",
			r1.Streams["algou1a0"].Plays, r2.Streams["algou2a0"].Plays)
	}
	if svc.Servers["hermes-a"].Sessions() != 2 {
		t.Fatalf("sessions = %d", svc.Servers["hermes-a"].Sessions())
	}
}

func TestNewSimulatedRejectsBadLesson(t *testing.T) {
	_, err := NewSimulated(Config{
		Servers: []ServerSpec{{Name: "x", Lessons: []LessonSpec{{Name: "bad", Source: "<broken"}}}},
	})
	if err == nil {
		t.Fatal("bad lesson accepted")
	}
}

func TestCustomLink(t *testing.T) {
	svc := simulated(t, Config{
		Servers: []ServerSpec{{Name: "a", Lessons: MakeCourse("c", 1, 1, 5*time.Second)}},
		Link:    netsim.DefaultWAN(),
		Seed:    7,
	})
	svc.Enroll("u", "pw", qos.Economy)
	b := svc.NewBrowser("u", "pw", client.Options{})
	b.Connect("a")
	svc.Run(2 * time.Second)
	if lc := b.LastConnect(); lc == nil || !lc.OK {
		t.Fatalf("WAN connect failed: %+v", lc)
	}
}

func TestTimedLinkAcrossServers(t *testing.T) {
	// A lesson on server A whose timed sequential link names server B:
	// the browser must suspend A, connect to B and continue there without
	// user involvement.
	partOne := `<TITLE>part one</TITLE>
<AU SOURCE=au/a ID=p1a STARTIME=0 DURATION=4> </AU>
<HLINK HREF=part-two HOST=hermes-b AT=5 KIND=SEQ> </HLINK>`
	partTwo := `<TITLE>part two</TITLE>
<AU SOURCE=au/b ID=p2a STARTIME=0 DURATION=4> </AU>`
	svc := simulated(t, Config{
		Servers: []ServerSpec{
			{Name: "hermes-a", Lessons: []LessonSpec{{Name: "part-one", Source: partOne}}},
			{Name: "hermes-b", Lessons: []LessonSpec{{Name: "part-two", Source: partTwo}}},
		},
	})
	svc.Enroll("u", "pw", qos.Standard)
	b := svc.NewBrowser("u", "pw", client.Options{AutoFollowLinks: true})
	b.Connect("hermes-a")
	svc.Run(time.Second)
	b.RequestDoc("part-one")
	svc.Run(20 * time.Second)
	hist := b.History()
	if len(hist) != 2 || hist[1] != "part-two" {
		t.Fatalf("history = %v", hist)
	}
	// The old connection was suspended, not dropped, and holds a token.
	if b.State("hermes-a") != protocol.StSuspended {
		t.Fatalf("hermes-a state = %v", b.State("hermes-a"))
	}
	if b.SuspendToken("hermes-a") == "" {
		t.Fatal("no resume token from the auto-suspend")
	}
	// Part two actually played on server B.
	rep := b.Player().Report()
	if rep.Streams["p2a"].Plays < rep.Streams["p2a"].Expected*8/10 {
		t.Fatalf("part-two plays = %d/%d", rep.Streams["p2a"].Plays, rep.Streams["p2a"].Expected)
	}
	// Back returns across servers within the grace period, and part one's
	// timed link moves the viewer to server B a second time.
	if !b.Back() {
		t.Fatal("back unavailable")
	}
	svc.Run(10 * time.Second)
	if got := fmt.Sprint(b.History()); got != "[part-one part-two part-one part-two]" {
		t.Fatalf("after back, history = %s", got)
	}
	if b.State("hermes-a") != protocol.StSuspended || b.CurrentServer() != "hermes-b" {
		t.Fatalf("after back: hermes-a %v, current server %q", b.State("hermes-a"), b.CurrentServer())
	}
}

// TestRequestHandedOffToHoldingServer asks hermes-a for a lesson only
// hermes-b holds, as the federated search lists it: the request is handed
// off and the lesson plays on hermes-b behind a suspended hermes-a.
func TestRequestHandedOffToHoldingServer(t *testing.T) {
	svc := twoServerService(t)
	svc.Enroll("eva", "pw", qos.Standard)
	b := svc.NewBrowser("eva", "pw", client.Options{})
	b.Connect("hermes-a")
	svc.Run(time.Second)
	b.RequestDoc("nets-L1")
	svc.Run(5 * time.Second)
	if b.State("hermes-b") != protocol.StViewing {
		t.Fatalf("state on hermes-b = %v, want viewing (err %q)", b.State("hermes-b"), b.LastError())
	}
	if b.State("hermes-a") != protocol.StSuspended {
		t.Fatalf("state on hermes-a = %v, want suspended", b.State("hermes-a"))
	}
	if got := b.History(); len(got) != 1 || got[0] != "nets-L1" {
		t.Fatalf("history = %v", got)
	}
}

func TestNewSimulatedRejectsDivergentCopies(t *testing.T) {
	one := MakeCourse("c", 1, 1, 5*time.Second)
	other := MakeCourse("c", 1, 2, 5*time.Second)
	_, err := NewSimulated(Config{
		Servers: []ServerSpec{{Name: "x", Lessons: one}, {Name: "y", Lessons: other}},
	})
	if err == nil || !strings.Contains(err.Error(), "c-L1") {
		t.Fatalf("divergent copies of c-L1: err = %v", err)
	}
}
