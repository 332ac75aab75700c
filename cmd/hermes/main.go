// Command hermes is the live Hermes browser: an interactive command-line
// client that connects to hermesd servers over real loopback sockets,
// browses and plays lessons, and exercises every interactive operation of
// the service.
//
// Usage:
//
//	hermes -server hermes-a
//
// Commands at the prompt:
//
//	subscribe <user> <password> <email>   fill the subscription form
//	topics                                list this server's lessons
//	search <token>                        federated content search
//	get <lesson>                          play a lesson (trace to stdout)
//	pause | resume | reload               playback control
//	disable <stream-id>                   stop one media stream
//	annotate <text...>                    attach a remark
//	report                                playout quality of the last lesson
//	stats                                 server-side telemetry snapshot
//	local                                 this browser's telemetry dashboard
//	wait <duration>                       let time pass, e.g. wait 30s
//	history                               documents viewed
//	state                                 protocol state per server
//	quit
//
// The body is hermes.RunBrowser, which tests run on a virtual clock too.
package main

import (
	"fmt"
	"os"

	"repro/internal/clock"
	"repro/internal/hermes"
)

func main() {
	err := hermes.RunBrowser(os.Args, hermes.Env{
		Clock: clock.NewWall(), Net: hermes.Live, Wait: hermes.Poll,
		Stdin: os.Stdin, Stdout: os.Stdout, Stderr: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes:", err)
		os.Exit(1)
	}
}
