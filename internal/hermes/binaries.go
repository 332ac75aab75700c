package hermes

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/transport"
)

// Env is the world RunServer and RunBrowser run in. cmd/hermesd and
// cmd/hermes pass the wall clock, real sockets and the process's standard
// streams; a test passes a virtual clock and a simulated network.
type Env struct {
	Clock clock.Clock
	// Net opens the binary's network, its telemetry in scope and the
	// -hosts overrides applied, and returns how to close it.
	Net            func(scope *obs.Scope, hosts string) (netsim.Net, func(), error)
	Stdin          io.Reader
	Stdout, Stderr io.Writer
	// Wait returns once cond holds or d has passed on Clock, and reports
	// whether cond holds. On a virtual clock, time passes only in it.
	Wait func(d time.Duration, cond func() bool) bool
	// Serve blocks while the server serves: until SIGINT in hermesd.
	Serve func()
}

// Live opens real loopback sockets: the Env.Net of the live binaries. A bad
// host map fails before any socket opens.
func Live(scope *obs.Scope, hosts string) (netsim.Net, func(), error) {
	l := transport.NewLiveObs(scope)
	return l, l.Close, l.ParseHostMap(hosts)
}

// Poll is the wall clock's Env.Wait: it checks cond every 20 ms.
func Poll(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

// never is the condition of a wait that lasts its whole duration.
func never() bool { return false }

// RunServer is hermesd, the Hermes multimedia server: it serves a generated
// course or a directory of .hml lessons until env.Serve returns, then
// prints its telemetry and writes the files its flags name. args is the
// command line, program name first, as in os.Args; a bad flag exits the
// process with status 2, as the flag package does.
func RunServer(args []string, env Env) error {
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	fs.SetOutput(env.Stderr)
	name := fs.String("name", "hermes-a", "server host name")
	lessonsDir := fs.String("lessons", "", "directory of .hml lesson files (empty = generated course)")
	course := fs.String("course", "algorithms", "generated course name")
	units := fs.Int("units", 3, "generated course units")
	capacity := fs.Float64("capacity", 50_000_000, "admission capacity (bits/s)")
	grace := fs.Duration("grace", 30*time.Second, "suspended-connection grace period")
	heartbeatEvery := fs.Duration("heartbeat-every", time.Second, "expected client heartbeat spacing")
	livenessMisses := fs.Int("liveness-misses", 3, "missed heartbeats before a session is auto-suspended")
	peers := fs.String("peers", "", "comma-separated peer server names for federated search")
	placement := fs.String("placement", "", "cluster document placement map, doc=srvA+srvB,doc2=srvB (enables redirect/handoff)")
	redirectWatermark := fs.Float64("redirect-watermark", 0, "redirect fresh connects once reserved bandwidth reaches this fraction of capacity (0 = off)")
	sessionWatermark := fs.Int("session-watermark", 0, "redirect fresh connects once this many sessions are resident (0 = off)")
	clusterKey := fs.String("cluster-key", "", "shared HMAC key signing cross-server handoff tickets (empty = unsigned handoffs)")
	sharedFlows := fs.Bool("shared-flows", false, "fan each hot document out from one paced flow per stream (one encode, N subscribers)")
	hostmap := fs.String("hosts", "", "host=ip overrides (host=127.0.0.5,...)")
	testuser := fs.Bool("testuser", true, "pre-subscribe user student/pw")
	metricsEvery := fs.Duration("metrics-every", 0, "dump the telemetry dashboard periodically (0 = only at exit)")
	tracePath := fs.String("trace", "", "write the JSONL event trace to this file at exit")
	seriesPath := fs.String("series", "", "write the JSONL metric time series to this file at exit")
	seriesEvery := fs.Duration("series-every", 10*time.Second, "time-series snapshot interval")
	flightDir := fs.String("flight", "", "arm the flight recorder; anomaly dumps land in this directory")
	fs.Parse(args[1:])
	out := env.Stdout

	scope := obs.NewScope(env.Clock)
	series := scope.EnableTimeSeries(obs.DefaultSeriesCap)
	series.Start(*seriesEvery)
	defer series.Stop()
	var flight *obs.Recorder
	if *flightDir != "" {
		flight = scope.EnableFlightRecorder(obs.RecorderOptions{Dir: *flightDir})
	}
	net, closeNet, err := env.Net(scope, *hostmap)
	if err != nil {
		return err
	}
	defer closeNet()

	users := auth.NewDB()
	if *testuser {
		users.Subscribe(auth.User{
			Name: "student", Password: "pw", RealName: "Test Student",
			Email: "student@example.gr", Class: qos.Standard,
		}, env.Clock.Now())
	}
	db := server.NewDatabase()
	if *lessonsDir != "" {
		err = loadLessons(db, *lessonsDir)
	} else {
		for _, l := range MakeCourse(*course, *units, 3, 10*time.Second) {
			if err = db.Put(l.Name, l.Source, l.Description); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
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
		if sopts.Directory, err = server.ParsePlacement(*placement); err != nil {
			return err
		}
	}
	if *clusterKey != "" {
		sopts.ClusterKey = []byte(*clusterKey)
	}
	srv, err := server.New(*name, env.Clock, net, users, db, sopts)
	if err != nil {
		return err
	}
	if *peers != "" {
		srv.SetPeers(strings.Split(*peers, ","))
	}
	fmt.Fprintf(out, "hermesd: serving %d lessons as %q (control %s:%d)\n",
		db.Len(), *name, *name, server.ControlPort)
	for _, n := range db.Names() {
		fmt.Fprintf(out, "  - %s\n", n)
	}

	// Periodic telemetry dump: registry (including the transport counters)
	// plus the tail of the event trace.
	stopDump := clock.Every(env.Clock, *metricsEvery, func() {
		fmt.Fprintf(out, "hermesd: telemetry %s\n%s", env.Clock.Now().Format(time.RFC3339), scope.Dashboard(10))
	})
	env.Serve()
	stopDump()
	fmt.Fprintln(out, "hermesd: shutting down")
	fmt.Fprintf(out, "hermesd: cluster redirects=%d handoffs issued=%d accepted=%d\n",
		scope.Counter("cluster_redirects").Value(),
		scope.Counter("cluster_handoffs").Value(),
		scope.Counter("cluster_handoff_accepts").Value())
	fmt.Fprint(out, scope.Registry().Table())
	if *tracePath != "" {
		if err := writeFile(*tracePath, scope.Trace().WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "hermesd: wrote %d trace events to %s\n", scope.Trace().Len(), *tracePath)
	}
	if *seriesPath != "" {
		if err := writeFile(*seriesPath, series.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "hermesd: wrote %d time-series samples to %s\n", series.Len(), *seriesPath)
	}
	if flight != nil {
		fmt.Fprintf(out, "hermesd: flight recorder wrote %d dumps (last: %s)\n",
			flight.Dumps(), flight.LastDumpPath())
		if err := flight.LastErr(); err != nil {
			fmt.Fprintln(env.Stderr, "hermesd: flight recorder:", err)
		}
	}
	return nil
}

// loadLessons puts every *.hml file of dir into db, named by its base name.
func loadLessons(db *server.Database, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.hml"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no lessons in %s", dir)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := db.Put(strings.TrimSuffix(filepath.Base(f), ".hml"), string(data), f); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = errors.Join(write(f), f.Close())
	}
	return err
}
