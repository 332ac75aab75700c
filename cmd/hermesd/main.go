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
// can be pre-created with -testuser.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hermes"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	name := flag.String("name", "hermes-a", "server host name")
	lessonsDir := flag.String("lessons", "", "directory of .hml lesson files (empty = generated course)")
	course := flag.String("course", "algorithms", "generated course name")
	units := flag.Int("units", 3, "generated course units")
	capacity := flag.Float64("capacity", 50_000_000, "admission capacity (bits/s)")
	grace := flag.Duration("grace", 30*time.Second, "suspended-connection grace period")
	heartbeatEvery := flag.Duration("heartbeat-every", time.Second, "expected client heartbeat spacing")
	livenessMisses := flag.Int("liveness-misses", 3, "missed heartbeats before a session is auto-suspended")
	peers := flag.String("peers", "", "comma-separated peer server names for federated search")
	placement := flag.String("placement", "", "cluster document placement map, doc=srvA+srvB,doc2=srvB (enables redirect/handoff)")
	redirectWatermark := flag.Float64("redirect-watermark", 0, "redirect fresh connects once reserved bandwidth reaches this fraction of capacity (0 = off)")
	sessionWatermark := flag.Int("session-watermark", 0, "redirect fresh connects once this many sessions are resident (0 = off)")
	clusterKey := flag.String("cluster-key", "", "shared HMAC key signing cross-server handoff tickets (empty = unsigned handoffs)")
	sharedFlows := flag.Bool("shared-flows", false, "fan each hot document out from one paced flow per stream (one encode, N subscribers)")
	hostmap := flag.String("hosts", "", "host=ip overrides (host=127.0.0.5,...)")
	testuser := flag.Bool("testuser", true, "pre-subscribe user student/pw")
	metricsEvery := flag.Duration("metrics-every", 0, "dump the telemetry dashboard periodically (0 = only at exit)")
	tracePath := flag.String("trace", "", "write the JSONL event trace to this file at exit")
	seriesPath := flag.String("series", "", "write the JSONL metric time series to this file at exit")
	seriesEvery := flag.Duration("series-every", 10*time.Second, "time-series snapshot interval")
	flightDir := flag.String("flight", "", "arm the flight recorder; anomaly dumps land in this directory")
	flag.Parse()

	scope := obs.NewScope(clock.NewWall())
	series := scope.EnableTimeSeries(obs.DefaultSeriesCap)
	series.Start(*seriesEvery)
	defer series.Stop()
	var flight *obs.Recorder
	if *flightDir != "" {
		flight = scope.EnableFlightRecorder(obs.RecorderOptions{Dir: *flightDir})
	}
	live := transport.NewLiveObs(scope)
	defer live.Close()
	if err := live.ParseHostMap(*hostmap); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	users := auth.NewDB()
	if *testuser {
		users.Subscribe(auth.User{
			Name: "student", Password: "pw", RealName: "Test Student",
			Email: "student@example.gr", Class: qos.Standard,
		}, time.Now())
	}

	db := server.NewDatabase()
	if *lessonsDir != "" {
		files, err := filepath.Glob(filepath.Join(*lessonsDir, "*.hml"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "hermesd: no lessons in %s\n", *lessonsDir)
			os.Exit(2)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hermesd:", err)
				os.Exit(2)
			}
			lessonName := strings.TrimSuffix(filepath.Base(f), ".hml")
			if err := db.Put(lessonName, string(data), f); err != nil {
				fmt.Fprintf(os.Stderr, "hermesd: %s: %v\n", f, err)
				os.Exit(2)
			}
		}
	} else {
		for _, l := range hermes.MakeCourse(*course, *units, 3, 10*time.Second) {
			if err := db.Put(l.Name, l.Source, l.Description); err != nil {
				fmt.Fprintln(os.Stderr, "hermesd:", err)
				os.Exit(2)
			}
		}
	}

	sopts := server.Options{
		Capacity:          *capacity,
		Grace:             *grace,
		HeartbeatEvery:    *heartbeatEvery,
		LivenessMisses:    *livenessMisses,
		Obs:               scope,
		RedirectWatermark: *redirectWatermark,
		SessionWatermark:  *sessionWatermark,
		SharedFlows:       *sharedFlows,
	}
	if *placement != "" {
		dir, err := server.ParsePlacement(*placement)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermesd:", err)
			os.Exit(2)
		}
		sopts.Directory = dir
	}
	if *clusterKey != "" {
		sopts.ClusterKey = []byte(*clusterKey)
	}
	srv, err := server.New(*name, clock.NewWall(), live, users, db, sopts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermesd:", err)
		os.Exit(1)
	}
	if *peers != "" {
		srv.SetPeers(strings.Split(*peers, ","))
	}
	fmt.Printf("hermesd: serving %d lessons as %q (control %s:%d)\n",
		db.Len(), *name, *name, server.ControlPort)
	for _, n := range db.Names() {
		fmt.Printf("  - %s\n", n)
	}

	// Periodic telemetry dump: registry (including the transport counters)
	// plus the tail of the event trace.
	stopDump := make(chan struct{})
	if *metricsEvery > 0 {
		go func() {
			t := time.NewTicker(*metricsEvery)
			defer t.Stop()
			for {
				select {
				case <-stopDump:
					return
				case <-t.C:
					fmt.Printf("hermesd: telemetry %s\n%s", time.Now().Format(time.RFC3339), scope.Dashboard(10))
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stopDump)
	fmt.Println("hermesd: shutting down")
	fmt.Printf("hermesd: cluster redirects=%d handoffs issued=%d accepted=%d\n",
		scope.Counter("cluster_redirects").Value(),
		scope.Counter("cluster_handoffs").Value(),
		scope.Counter("cluster_handoff_accepts").Value())
	fmt.Print(scope.Registry().Table())
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermesd:", err)
			os.Exit(1)
		}
		if err := scope.Trace().WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "hermesd:", err)
		}
		f.Close()
		fmt.Printf("hermesd: wrote %d trace events to %s\n", scope.Trace().Len(), *tracePath)
	}
	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermesd:", err)
			os.Exit(1)
		}
		if err := series.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "hermesd:", err)
		}
		f.Close()
		fmt.Printf("hermesd: wrote %d time-series samples to %s\n", series.Len(), *seriesPath)
	}
	if flight != nil {
		fmt.Printf("hermesd: flight recorder wrote %d dumps (last: %s)\n",
			flight.Dumps(), flight.LastDumpPath())
		if err := flight.LastErr(); err != nil {
			fmt.Fprintln(os.Stderr, "hermesd: flight recorder:", err)
		}
	}
}
