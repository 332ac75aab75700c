// Command hermesd runs a live Hermes multimedia server over real loopback
// sockets (TCP for control and stills, UDP for audio/video RTP), serving
// either a generated course or a directory of .hml lesson files.
//
// Usage:
//
//	hermesd -name hermes-a                      # serve a generated course
//	hermesd -name hermes-a -lessons ./lessons   # serve *.hml from a directory
//	hermesd -name hermes-a -peers hermes-b      # federate search
//	hermesd -peers hermes-b -placement lec=hermes-a+hermes-b \
//	        -redirect-watermark 0.8 -cluster-key secret   # cluster mode
//	hermesd -metrics-every 10s                  # periodic telemetry dump
//	hermesd -trace trace.jsonl                  # write event trace on exit
//	hermesd -series series.jsonl                # write metric time series on exit
//	hermesd -flight ./flightdir                 # anomaly-triggered flight dumps
//
// Users subscribe in-band via the browser, or a test user "student"/"pw"
// can be pre-created with -testuser. The body is hermes.RunServer, which
// tests run on a virtual clock too.
package main

import (
	"fmt"
	"os"
	"os/signal"

	"repro/internal/clock"
	"repro/internal/hermes"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	err := hermes.RunServer(os.Args, hermes.Env{
		Clock: clock.NewWall(), Net: hermes.Live,
		Stdout: os.Stdout, Stderr: os.Stderr, Serve: func() { <-sig },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermesd:", err)
		os.Exit(1)
	}
}
