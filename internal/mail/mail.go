// Package mail implements the asynchronous tutor/student interaction of the
// Hermes service: MIME message construction and a minimal SMTP-dialect
// server with an in-memory spool. The paper's prototype used SMTP and MIME
// for "the interaction between the student and the teacher"; this package
// exercises the same protocol structure end to end without external network
// access.
package mail

import (
	"bufio"
	"fmt"
	"mime"
	"mime/multipart"
	"net/textproto"
	"strings"
	"sync"
	"time"
)

// Message is one mail message.
type Message struct {
	From    string
	To      string
	Subject string
	Date    time.Time
	// Body is the plain-text part.
	Body string
	// Attachments are additional MIME parts (e.g. an annotated lesson
	// fragment).
	Attachments []Attachment
}

// Attachment is one extra MIME part.
type Attachment struct {
	Filename    string
	ContentType string
	Data        []byte
}

// Render produces the RFC 822 + MIME wire form of the message.
func Render(m *Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "From: %s\r\n", m.From)
	fmt.Fprintf(&b, "To: %s\r\n", m.To)
	fmt.Fprintf(&b, "Subject: %s\r\n", mime.QEncoding.Encode("utf-8", m.Subject))
	fmt.Fprintf(&b, "Date: %s\r\n", m.Date.UTC().Format(time.RFC1123Z))
	fmt.Fprintf(&b, "MIME-Version: 1.0\r\n")
	if len(m.Attachments) == 0 {
		b.WriteString("Content-Type: text/plain; charset=utf-8\r\n\r\n")
		b.WriteString(m.Body)
		b.WriteString("\r\n")
		return b.String()
	}
	const boundary = "hermes-boundary-1996"
	fmt.Fprintf(&b, "Content-Type: multipart/mixed; boundary=%q\r\n\r\n", boundary)
	w := multipart.NewWriter(&b)
	if err := w.SetBoundary(boundary); err != nil {
		panic(err) // fixed valid boundary
	}
	pw, _ := w.CreatePart(textproto.MIMEHeader{
		"Content-Type": {"text/plain; charset=utf-8"},
	})
	fmt.Fprintf(pw, "%s\r\n", m.Body)
	for _, a := range m.Attachments {
		ct := a.ContentType
		if ct == "" {
			ct = "application/octet-stream"
		}
		pw, _ := w.CreatePart(textproto.MIMEHeader{
			"Content-Type":        {ct},
			"Content-Disposition": {fmt.Sprintf("attachment; filename=%q", a.Filename)},
		})
		pw.Write(a.Data)
	}
	w.Close()
	return b.String()
}

// Parse decodes a rendered message (headers + plain or multipart body).
func Parse(raw string) (*Message, error) {
	tp := textproto.NewReader(bufio.NewReader(strings.NewReader(raw)))
	hdr, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil, fmt.Errorf("mail: headers: %w", err)
	}
	m := &Message{
		From:    hdr.Get("From"),
		To:      hdr.Get("To"),
		Subject: decodeSubject(hdr.Get("Subject")),
	}
	if d, err := time.Parse(time.RFC1123Z, hdr.Get("Date")); err == nil {
		m.Date = d
	}
	ct := hdr.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if err != nil || !strings.HasPrefix(mediaType, "multipart/") {
		body, _ := readAll(tp)
		m.Body = strings.TrimRight(body, "\r\n")
		return m, nil
	}
	body, _ := readAll(tp)
	mr := multipart.NewReader(strings.NewReader(body), params["boundary"])
	first := true
	for {
		part, err := mr.NextPart()
		if err != nil {
			break
		}
		data := readPart(part)
		if first {
			m.Body = strings.TrimRight(data, "\r\n")
			first = false
			continue
		}
		_, dparams, _ := mime.ParseMediaType(part.Header.Get("Content-Disposition"))
		m.Attachments = append(m.Attachments, Attachment{
			Filename:    dparams["filename"],
			ContentType: part.Header.Get("Content-Type"),
			Data:        []byte(data),
		})
	}
	return m, nil
}

func decodeSubject(s string) string {
	dec := new(mime.WordDecoder)
	if out, err := dec.DecodeHeader(s); err == nil {
		return out
	}
	return s
}

func readAll(tp *textproto.Reader) (string, error) {
	var b strings.Builder
	for {
		line, err := tp.ReadLine()
		if err != nil {
			return b.String(), nil
		}
		b.WriteString(line)
		b.WriteString("\r\n")
	}
}

func readPart(p *multipart.Part) string {
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := p.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// Spool is the in-memory mail store: one mailbox per address.
type Spool struct {
	mu    sync.Mutex
	boxes map[string][]*Message
}

// NewSpool creates an empty spool.
func NewSpool() *Spool { return &Spool{boxes: map[string][]*Message{}} }

// Deliver stores a message in the recipient's mailbox.
func (s *Spool) Deliver(m *Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boxes[strings.ToLower(m.To)] = append(s.boxes[strings.ToLower(m.To)], m)
}

// Mailbox returns the messages for an address in delivery order.
func (s *Spool) Mailbox(addr string) []*Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	box := s.boxes[strings.ToLower(addr)]
	out := make([]*Message, len(box))
	copy(out, box)
	return out
}

// SMTPSession drives the minimal SMTP dialect over any line-oriented
// transport: HELO, MAIL FROM, RCPT TO, DATA, QUIT. Submit runs the whole
// client dialogue against a Server and returns the transcript.
type SMTPSession struct {
	srv        *Server
	from, rcpt string
	inData     bool
	data       strings.Builder
}

// Server is the in-process SMTP endpoint fronting a Spool.
type Server struct {
	Spool *Spool
	// Domain names the server in greetings.
	Domain string
}

// NewServer creates an SMTP server over a new spool.
func NewServer(domain string) *Server {
	return &Server{Spool: NewSpool(), Domain: domain}
}

// Open starts a session.
func (srv *Server) Open() *SMTPSession { return &SMTPSession{srv: srv} }

// Line processes one client line and returns the server reply.
func (s *SMTPSession) Line(line string) string {
	if s.inData {
		if line == "." {
			s.inData = false
			msg, err := Parse(s.data.String())
			if err != nil {
				return "554 malformed message"
			}
			if msg.From == "" {
				msg.From = s.from
			}
			if msg.To == "" {
				msg.To = s.rcpt
			}
			s.srv.Spool.Deliver(msg)
			s.data.Reset()
			return "250 OK: queued"
		}
		// Dot-stuffing per RFC 821 §4.5.2.
		s.data.WriteString(strings.TrimPrefix(line, "."))
		s.data.WriteString("\r\n")
		return ""
	}
	verb := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(verb, "HELO"), strings.HasPrefix(verb, "EHLO"):
		return "250 " + s.srv.Domain
	case strings.HasPrefix(verb, "MAIL FROM:"):
		s.from = strings.Trim(line[len("MAIL FROM:"):], " <>")
		return "250 OK"
	case strings.HasPrefix(verb, "RCPT TO:"):
		s.rcpt = strings.Trim(line[len("RCPT TO:"):], " <>")
		return "250 OK"
	case verb == "DATA":
		if s.from == "" || s.rcpt == "" {
			return "503 bad sequence"
		}
		s.inData = true
		return "354 end with ."
	case verb == "QUIT":
		return "221 bye"
	default:
		return "500 unrecognized"
	}
}

// Send runs the complete SMTP dialogue for one message and returns the
// transcript lines (client and server interleaved, prefixed "C: "/"S: ").
func Send(srv *Server, m *Message) ([]string, error) {
	sess := srv.Open()
	var transcript []string
	say := func(line string) string {
		reply := sess.Line(line)
		transcript = append(transcript, "C: "+line)
		if reply != "" {
			transcript = append(transcript, "S: "+reply)
		}
		return reply
	}
	if r := say("HELO client"); !strings.HasPrefix(r, "250") {
		return transcript, fmt.Errorf("mail: HELO: %s", r)
	}
	if r := say("MAIL FROM:<" + m.From + ">"); !strings.HasPrefix(r, "250") {
		return transcript, fmt.Errorf("mail: MAIL: %s", r)
	}
	if r := say("RCPT TO:<" + m.To + ">"); !strings.HasPrefix(r, "250") {
		return transcript, fmt.Errorf("mail: RCPT: %s", r)
	}
	if r := say("DATA"); !strings.HasPrefix(r, "354") {
		return transcript, fmt.Errorf("mail: DATA: %s", r)
	}
	for _, line := range strings.Split(Render(m), "\r\n") {
		if strings.HasPrefix(line, ".") {
			line = "." + line
		}
		say(line)
	}
	if r := say("."); !strings.HasPrefix(r, "250") {
		return transcript, fmt.Errorf("mail: end-of-data: %s", r)
	}
	say("QUIT")
	return transcript, nil
}
