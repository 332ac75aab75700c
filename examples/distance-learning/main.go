// Distance learning: the complete Hermes service of §6 — a student
// subscribes, searches the federation, views a multi-slide lesson that
// auto-advances between units, navigates to a second server (suspending the
// first connection), and exchanges e-mail with the tutor.
//
// Run with: go run ./examples/distance-learning
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/hermes"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
)

func main() {
	// Two Hermes servers: an algorithms course and a networks course.
	svc, err := hermes.NewSimulated(hermes.Config{
		Seed: 7,
		Servers: []hermes.ServerSpec{
			{Name: "hermes-algorithms", Lessons: hermes.MakeCourse("algo", 2, 2, 8*time.Second)},
			{Name: "hermes-networks", Lessons: hermes.MakeCourse("nets", 1, 2, 8*time.Second)},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A new student arrives with no subscription.
	b := svc.NewBrowser("maria", "secret", client.Options{AutoFollowLinks: true})
	b.Connect("hermes-algorithms")
	svc.Run(time.Second)
	if lc := b.LastConnect(); lc != nil && lc.NeedSubscription {
		fmt.Println("server: subscription required — submitting the form")
		b.Subscribe(protocol.SubscriptionForm{
			User: "maria", Password: "secret", RealName: "Maria P.",
			Address: "Rio, Patras", Email: "maria@students.example.gr",
			Phone: "061-997xxx", Class: qos.Standard,
		})
		svc.Run(time.Second)
	}
	fmt.Printf("state toward hermes-algorithms: %v\n", b.State("hermes-algorithms"))

	// Federated search across both servers.
	b.Search("unit 1")
	svc.Run(2 * time.Second)
	hits, _ := b.SearchResults()
	fmt.Println("\nsearch \"unit 1\" found:")
	for _, h := range hits {
		fmt.Printf("  %-10s %q on %s\n", h.Name, h.Title, h.Server)
	}

	// View the first lesson; its timed sequential link auto-advances to
	// unit 2 ("the tutor's way").
	fmt.Println("\nviewing algo-L1 (auto-advances to algo-L2)...")
	b.RequestDoc("algo-L1")
	svc.Run(45 * time.Second)
	fmt.Printf("history: %v\n", b.History())
	rep := b.Player().Report()
	fmt.Printf("last unit played %d streams\n", len(rep.Streams))

	// Explorational jump to the networks server: the algorithms
	// connection is suspended with a grace period.
	fmt.Println("\nfollowing an explorational link to hermes-networks...")
	b.FollowLink(scenario.Link{Target: "nets-L1", Host: "hermes-networks"})
	svc.Run(3 * time.Second)
	fmt.Printf("hermes-algorithms is now: %v (resume token held: %v)\n",
		b.State("hermes-algorithms"), b.SuspendToken("hermes-algorithms") != "")
	svc.Run(20 * time.Second)

	// Return within the grace period: the connect presents the resume
	// token, so there is no re-authentication.
	b.Connect("hermes-algorithms")
	svc.Run(time.Second)
	fmt.Printf("after returning: %v\n", b.State("hermes-algorithms"))

	// Asynchronous tutor interaction over SMTP/MIME.
	fmt.Println("\nmailing the tutor...")
	if err := svc.AskTutor("maria@students.example.gr",
		"Question on algo unit 2", "Why do the audio and video start together?"); err != nil {
		log.Fatal(err)
	}
	svc.TutorReply("maria@students.example.gr", "Re: Question on algo unit 2",
		"They form an AU_VI synchronization group — see lesson algo-L2.")
	for _, m := range svc.Mail.Spool.Mailbox("maria@students.example.gr") {
		fmt.Printf("  inbox: %q — %s\n", m.Subject, m.Body)
	}

	b.Disconnect()
	svc.Run(time.Second)
	fmt.Println("\nsession closed; total charge:", svc.Users.Balance("maria"))
}
