// Package hermes assembles the complete distance-education service of §6 of
// the paper: a federation of multimedia servers holding lessons, the shared
// database of authorized users, the mail service for asynchronous
// tutor/student interaction, and browser (client) instances — all wired over
// a simulated broadband network on a virtual clock. RunServer and RunBrowser
// are the bodies of the cmd/hermesd and cmd/hermes binaries, which run them
// over a real network on the wall clock. The simulated federation is a
// cluster.New federation, so a lesson requested from a server that does not
// hold it is handed off to one that does, and a browser moving between
// servers runs the same suspend/connect/fallback episode as a handoff.
package hermes

import (
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/hml"
	"repro/internal/mail"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/server"
)

// LessonSpec is one lesson stored on a server.
type LessonSpec struct {
	Name        string
	Source      string
	Description string
}

// ServerSpec configures one Hermes server of the federation.
type ServerSpec struct {
	Name    string
	Lessons []LessonSpec
}

// Config configures a simulated deployment.
type Config struct {
	Servers []ServerSpec
	// ServerOptions tunes every server (zero value = defaults); the
	// federation fills in Obs, Directory and ClusterKey.
	ServerOptions server.Options
	// Link is the default network link between every host pair.
	Link netsim.LinkConfig
	// Seed drives the network's randomness.
	Seed uint64
}

// Service is a running simulated Hermes deployment.
type Service struct {
	Clk     *clock.Virtual
	Net     *netsim.Network
	Users   *auth.DB
	Servers map[string]*server.Server
	Mail    *mail.Server

	fed     *cluster.Cluster
	clients int
}

// NewSimulated builds the deployment on a fresh virtual clock: a
// cluster.New federation in which each lesson is placed on the servers
// whose spec lists it, in spec order. A lesson listed on several servers
// must be the same lesson on each.
func NewSimulated(cfg Config) (*Service, error) {
	clk := clock.NewSim()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	net := netsim.New(clk, cfg.Seed)
	link := cfg.Link
	if link.Bandwidth == 0 && link.Delay == 0 {
		link = netsim.DefaultLAN()
	}
	net.SetDefaultLink(link)
	fed := cluster.Config{
		Placement:     server.Placement{},
		Docs:          map[string]string{},
		Descriptions:  map[string]string{},
		ServerOptions: cfg.ServerOptions,
	}
	for _, spec := range cfg.Servers {
		fed.Servers = append(fed.Servers, spec.Name)
		for _, l := range spec.Lessons {
			if src, ok := fed.Docs[l.Name]; ok && src != l.Source {
				return nil, fmt.Errorf("hermes: lesson %s on %s has a different source than its other copies", l.Name, spec.Name)
			}
			fed.Placement[l.Name] = append(fed.Placement[l.Name], spec.Name)
			fed.Docs[l.Name] = l.Source
			fed.Descriptions[l.Name] = l.Description
		}
	}
	users := auth.NewDB()
	cl, err := cluster.New(clk, net, users, fed)
	if err != nil {
		return nil, fmt.Errorf("hermes: %w", err)
	}
	return &Service{
		Clk:     clk,
		Net:     net,
		Users:   users,
		Servers: cl.Servers,
		Mail:    mail.NewServer("hermes.cti.gr"),
		fed:     cl,
	}, nil
}

// Enroll subscribes a student directly into the central user database (the
// out-of-band path; the in-band subscription form also works via the
// browser).
func (s *Service) Enroll(name, password string, class qos.PricingClass) error {
	return s.Users.Subscribe(auth.User{
		Name: name, Password: password, RealName: name,
		Email: name + "@students.example.gr", Class: class,
	}, s.Clk.Now())
}

// NewBrowser creates a browser host for a student. Each browser gets its own
// host name and port space.
func (s *Service) NewBrowser(user, password string, opts client.Options) *client.Client {
	s.clients++
	opts.User = user
	opts.Password = password
	host := fmt.Sprintf("pc-%d", s.clients)
	// The simulated network's Listen never fails, so the error is nil.
	c, _ := client.New(host, s.Clk, s.Net, opts)
	return c
}

// Run advances the simulation.
func (s *Service) Run(d time.Duration) { s.Clk.RunFor(d) }

// AskTutor delivers a student question to the tutor's mailbox via the SMTP
// dialect (the asynchronous interaction of §6.2.4).
func (s *Service) AskTutor(from, subject, body string) error {
	_, err := mail.Send(s.Mail, &mail.Message{
		From: from, To: "tutor@cti.gr", Subject: subject,
		Date: s.Clk.Now(), Body: body,
	})
	return err
}

// TutorReply sends the tutor's answer back to a student.
func (s *Service) TutorReply(to, subject, body string) error {
	_, err := mail.Send(s.Mail, &mail.Message{
		From: "tutor@cti.gr", To: to, Subject: subject,
		Date: s.Clk.Now(), Body: body,
	})
	return err
}

// MakeCourse builds a course of n lessons, each a multi-slide presentation
// whose final timed sequential link leads to the next lesson; the last
// lesson links nowhere. Lesson i is named "<course>-L<i>".
func MakeCourse(course string, lessons, slides int, slide time.Duration) []LessonSpec {
	var out []LessonSpec
	for i := 1; i <= lessons; i++ {
		name := fmt.Sprintf("%s-L%d", course, i)
		src := courseLesson(course, i, lessons, slides, slide)
		out = append(out, LessonSpec{
			Name:        name,
			Source:      src,
			Description: fmt.Sprintf("%s, unit %d of %d", course, i, lessons),
		})
	}
	return out
}

func courseLesson(course string, i, total, slides int, slide time.Duration) string {
	src := fmt.Sprintf("<TITLE>%s unit %d</TITLE>\n<H1>%s — unit %d</H1>\n<PAR>\n", course, i, course, i)
	src += fmt.Sprintf("<TEXT>Unit %d of the %s course. <B>Slides with narration follow.</B></TEXT>\n", i, course)
	for sNum := 0; sNum < slides; sNum++ {
		at := time.Duration(sNum) * slide
		src += fmt.Sprintf("<IMG SOURCE=img/%s-%d-%d ID=%su%ds%d STARTIME=%s DURATION=%s WIDTH=640 HEIGHT=480> </IMG>\n",
			course, i, sNum, course, i, sNum, hml.FormatTime(at), hml.FormatTime(slide))
		src += fmt.Sprintf("<AU_VI SOURCE=au/%s-%d-%d SOURCE=vi/%s-%d-%d ID=%su%da%d ID=%su%dv%d STARTIME=%s DURATION=%s> </AU_VI>\n",
			course, i, sNum, course, i, sNum, course, i, sNum, course, i, sNum,
			hml.FormatTime(at), hml.FormatTime(slide-time.Second))
	}
	if i < total {
		end := time.Duration(slides) * slide
		src += fmt.Sprintf("<SEP>\n<HLINK HREF=%s-L%d AT=%s KIND=SEQ NOTE=\"next unit\"> </HLINK>\n",
			course, i+1, hml.FormatTime(end))
	}
	return src
}
