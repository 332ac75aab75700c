package mail

import (
	"strings"
	"testing"
	"time"
)

var when = time.Date(1996, 8, 6, 10, 30, 0, 0, time.UTC)

func msg() *Message {
	return &Message{
		From:    "student@uni.gr",
		To:      "tutor@cti.gr",
		Subject: "Question about lesson 3",
		Date:    when,
		Body:    "Could you explain the synchronization slide?",
	}
}

func TestRenderPlainHeaders(t *testing.T) {
	out := Render(msg())
	for _, want := range []string{
		"From: student@uni.gr", "To: tutor@cti.gr",
		"Subject: Question about lesson 3", "MIME-Version: 1.0",
		"Content-Type: text/plain", "synchronization slide",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	m := msg()
	got, err := Parse(Render(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To || got.Subject != m.Subject || got.Body != m.Body {
		t.Fatalf("round trip: %+v", got)
	}
	if !got.Date.Equal(when) {
		t.Fatalf("date = %v", got.Date)
	}
}

func TestMultipartAttachmentRoundTrip(t *testing.T) {
	m := msg()
	m.Attachments = []Attachment{
		{Filename: "annotation.hml", ContentType: "text/x-hml", Data: []byte("<TITLE>note</TITLE>")},
		{Filename: "frame.jpg", ContentType: "image/jpeg", Data: []byte{0xff, 0xd8, 0x01, 0x02}},
	}
	out := Render(m)
	if !strings.Contains(out, "multipart/mixed") {
		t.Fatalf("not multipart:\n%s", out)
	}
	got, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != m.Body {
		t.Fatalf("body = %q", got.Body)
	}
	if len(got.Attachments) != 2 {
		t.Fatalf("attachments = %d", len(got.Attachments))
	}
	if got.Attachments[0].Filename != "annotation.hml" ||
		string(got.Attachments[0].Data) != "<TITLE>note</TITLE>" {
		t.Fatalf("attachment 0 = %+v", got.Attachments[0])
	}
	if got.Attachments[1].ContentType != "image/jpeg" {
		t.Fatalf("attachment 1 CT = %q", got.Attachments[1].ContentType)
	}
}

func TestNonASCIISubject(t *testing.T) {
	m := msg()
	m.Subject = "Ερώτηση για το μάθημα"
	got, err := Parse(Render(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Subject != m.Subject {
		t.Fatalf("subject = %q", got.Subject)
	}
}

func TestSpoolDeliveryAndMailboxes(t *testing.T) {
	s := NewSpool()
	s.Deliver(msg())
	m2 := msg()
	m2.To = "Tutor@CTI.GR" // case-insensitive mailbox
	s.Deliver(m2)
	if got := len(s.Mailbox("tutor@cti.gr")); got != 2 {
		t.Fatalf("mailbox = %d", got)
	}
	if len(s.Mailbox("nobody@x")) != 0 {
		t.Fatal("phantom mailbox")
	}
	if got := len(s.Mailbox("Tutor@CTI.GR")); got != 2 {
		t.Fatalf("mixed-case lookup = %d, want the same mailbox", got)
	}
}

func TestSMTPSessionHappyPath(t *testing.T) {
	srv := NewServer("hermes.cti.gr")
	transcript, err := Send(srv, msg())
	if err != nil {
		t.Fatalf("%v\n%s", err, strings.Join(transcript, "\n"))
	}
	box := srv.Spool.Mailbox("tutor@cti.gr")
	if len(box) != 1 {
		t.Fatalf("mailbox = %d", len(box))
	}
	if box[0].Body != msg().Body || box[0].Subject != msg().Subject {
		t.Fatalf("delivered = %+v", box[0])
	}
	joined := strings.Join(transcript, "\n")
	for _, want := range []string{"HELO", "MAIL FROM", "RCPT TO", "DATA", "250 OK: queued", "221 bye"} {
		if !strings.Contains(joined, want) {
			t.Errorf("transcript missing %q", want)
		}
	}
}

func TestSMTPBadSequence(t *testing.T) {
	srv := NewServer("x")
	sess := srv.Open()
	if r := sess.Line("DATA"); !strings.HasPrefix(r, "503") {
		t.Fatalf("DATA before MAIL: %q", r)
	}
	if r := sess.Line("BOGUS"); !strings.HasPrefix(r, "500") {
		t.Fatalf("unknown verb: %q", r)
	}
	if r := sess.Line("QUIT"); !strings.HasPrefix(r, "221") {
		t.Fatalf("QUIT: %q", r)
	}
}

func TestSMTPDotStuffing(t *testing.T) {
	srv := NewServer("x")
	m := msg()
	m.Body = "line one\r\n.hidden dot line\r\nlast"
	if _, err := Send(srv, m); err != nil {
		t.Fatal(err)
	}
	got := srv.Spool.Mailbox("tutor@cti.gr")[0]
	if !strings.Contains(got.Body, ".hidden dot line") {
		t.Fatalf("dot-stuffed body corrupted: %q", got.Body)
	}
}

func TestTutorReplyFlow(t *testing.T) {
	// Student asks; tutor replies prompting a lesson: two spools, the
	// asynchronous interaction of §6.2.4.
	studentSrv := NewServer("uni.gr")
	tutorSrv := NewServer("cti.gr")
	if _, err := Send(tutorSrv, msg()); err != nil {
		t.Fatal(err)
	}
	q := tutorSrv.Spool.Mailbox("tutor@cti.gr")[0]
	reply := &Message{
		From: q.To, To: q.From,
		Subject: "Re: " + q.Subject,
		Date:    when.Add(time.Hour),
		Body:    "Please retrieve lesson sync-2 from server-b.",
	}
	if _, err := Send(studentSrv, reply); err != nil {
		t.Fatal(err)
	}
	box := studentSrv.Spool.Mailbox("student@uni.gr")
	if len(box) != 1 || !strings.Contains(box[0].Body, "sync-2") {
		t.Fatalf("reply = %+v", box)
	}
}
