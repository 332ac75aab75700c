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
//	history                               documents viewed
//	state                                 protocol state per server
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/transport"
)

func main() {
	serverName := flag.String("server", "hermes-a", "server host name")
	user := flag.String("user", "student", "user name")
	password := flag.String("pass", "pw", "password")
	hostname := flag.String("name", "browser-1", "this browser's host name")
	hostmap := flag.String("hosts", "", "host=ip overrides")
	script := flag.String("script", "", "semicolon-separated commands to run non-interactively")
	tracePath := flag.String("trace", "", "write the JSONL event trace to this file at exit")
	heartbeatEvery := flag.Duration("heartbeat-every", time.Second, "session heartbeat spacing")
	livenessMisses := flag.Int("liveness-misses", 3, "unanswered heartbeats before the server is declared dead")
	retryTimeout := flag.Duration("retry-timeout", 750*time.Millisecond, "initial control-request reply timeout")
	retryAttempts := flag.Int("retry-attempts", 5, "control-request transmissions before giving up")
	peers := flag.String("peers", "", "comma-separated replica servers seeding the failover/redirect set")
	flag.Parse()

	scope := obs.NewScope(clock.NewWall())
	live := transport.NewLiveObs(scope)
	defer live.Close()
	if err := live.ParseHostMap(*hostmap); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	copts := client.Options{
		User: *user, Password: *password, Class: qos.Standard,
		AutoFollowLinks:   true,
		HeartbeatInterval: *heartbeatEvery,
		LivenessMisses:    *livenessMisses,
		RetryTimeout:      *retryTimeout,
		RetryAttempts:     *retryAttempts,
		Obs:               scope,
	}
	if *peers != "" {
		copts.Peers = strings.Split(*peers, ",")
	}
	c, err := client.New(*hostname, clock.NewWall(), live, copts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes:", err)
		os.Exit(1)
	}
	// Runs before the deferred live.Close(), so the snapshot is complete.
	defer func() {
		fmt.Fprintf(os.Stderr, "hermes: cluster redirects followed=%d handoffs=%d completed=%d fallbacks=%d\n",
			scope.Counter("client_redirects_followed").Value(),
			scope.Counter("client_handoffs").Value(),
			scope.Counter("client_handoffs_completed").Value(),
			scope.Counter("client_handoff_fallbacks").Value())
		fmt.Fprint(os.Stderr, scope.Registry().Table())
		if *tracePath == "" {
			return
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermes:", err)
			return
		}
		if err := scope.Trace().WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "hermes:", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "hermes: wrote %d trace events to %s\n", scope.Trace().Len(), *tracePath)
	}()

	fmt.Printf("hermes: connecting to %s as %s...\n", *serverName, *user)
	c.Connect(*serverName)
	// A Redirect answer is not terminal: the client is already backing off
	// toward a less-loaded peer, so keep waiting for the hop to resolve.
	waitUntil(5*time.Second, func() bool {
		lc := c.LastConnect()
		return lc != nil && !lc.Redirect
	})
	lc := c.LastConnect()
	switch {
	case lc == nil:
		fmt.Println("hermes: no answer from server")
		os.Exit(1)
	case lc.Redirect:
		fmt.Printf("hermes: redirected but no peer admitted us: %s\n", lc.Reason)
		os.Exit(1)
	case lc.OK:
		fmt.Printf("hermes: connected (session %s)\n", lc.SessionID)
	case lc.NeedSubscription:
		fmt.Println("hermes: not subscribed — use: subscribe <user> <pass> <email>")
	default:
		fmt.Printf("hermes: refused: %s\n", lc.Reason)
		os.Exit(1)
	}

	run := func(line string) bool { return execute(c, scope, *serverName, line) }
	if *script != "" {
		for _, cmd := range strings.Split(*script, ";") {
			if !run(strings.TrimSpace(cmd)) {
				break
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if !run(strings.TrimSpace(sc.Text())) {
			return
		}
		fmt.Print("> ")
	}
}

func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

func execute(c *client.Client, scope *obs.Scope, serverName, line string) bool {
	if line == "" {
		return true
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		c.Disconnect()
		time.Sleep(100 * time.Millisecond)
		return false

	case "subscribe":
		if len(args) < 3 {
			fmt.Println("usage: subscribe <user> <password> <email>")
			return true
		}
		c.Subscribe(protocol.SubscriptionForm{
			User: args[0], Password: args[1], Email: args[2],
			RealName: args[0], Class: qos.Standard,
		})
		waitUntil(2*time.Second, func() bool { return c.LastSubscribe() != nil })
		if ls := c.LastSubscribe(); ls != nil && ls.OK {
			fmt.Println("subscribed; reconnecting")
			c.Connect(serverName)
			waitUntil(2*time.Second, func() bool { return c.LastConnect() != nil })
		} else if ls != nil {
			fmt.Println("refused:", ls.Reason)
		}

	case "topics":
		c.RequestTopics()
		waitUntil(2*time.Second, func() bool { return len(c.Topics()) > 0 })
		for _, t := range c.Topics() {
			fmt.Printf("  %-20s %q (%s)\n", t.Name, t.Title, t.Server)
		}

	case "search":
		if len(args) == 0 {
			fmt.Println("usage: search <token>")
			return true
		}
		c.Search(strings.Join(args, " "))
		waitUntil(4*time.Second, func() bool { _, done := c.SearchResults(); return done })
		hits, _ := c.SearchResults()
		if len(hits) == 0 {
			fmt.Println("  no matches")
		}
		for _, h := range hits {
			fmt.Printf("  %-20s %q on %s\n", h.Name, h.Title, h.Server)
		}

	case "get":
		if len(args) == 0 {
			fmt.Println("usage: get <lesson>")
			return true
		}
		c.RequestDoc(args[0])
		if !waitUntil(5*time.Second, func() bool { return c.Player() != nil }) {
			fmt.Println("  no document:", c.LastError())
			return true
		}
		fmt.Println("  playing; 'pause'/'resume' control it, 'report' when done")

	case "pause":
		c.Pause()
	case "resume":
		c.Resume()
	case "reload":
		c.Reload()
	case "disable":
		if len(args) == 1 {
			c.DisableMedia(args[0])
		}
	case "annotate":
		c.Annotate(strings.Join(args, " "))

	case "annotations":
		doc := ""
		if len(args) > 0 {
			doc = args[0]
		}
		c.RequestAnnotations(doc)
		waitUntil(2*time.Second, func() bool { return c.Annotations() != nil })
		if ann := c.Annotations(); ann != nil {
			fmt.Printf("  remarks on %s:\n", ann.Doc)
			for _, r := range ann.Records {
				fmt.Printf("    [%s] %s\n", r.User, r.Text)
			}
		}

	case "report":
		p := c.Player()
		if p == nil {
			fmt.Println("  nothing played yet")
			return true
		}
		rep := p.Report()
		ids := make([]string, 0, len(rep.Streams))
		for id := range rep.Streams {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			s := rep.Streams[id]
			fmt.Printf("  %-12s plays %d/%d gaps %d drops %d\n", id, s.Plays, s.Expected, s.Gaps, s.Drops)
		}
		fmt.Printf("  startup delay %v, display events %d\n",
			c.StartupDelay(), c.Display().Len())
		_ = playout.EvPlay

	case "stats":
		c.RequestStats()
		if !waitUntil(2*time.Second, func() bool { return c.Stats() != nil }) {
			fmt.Println("  no stats answer from server")
			return true
		}
		st := c.Stats()
		fmt.Printf("  server %s: %d metrics, trace %d events (%d dropped)\n",
			st.Server, len(st.Metrics), st.TraceEvents, st.TraceDropped)
		for _, p := range st.Metrics {
			if p.Kind == "histogram" {
				// FmtMS picks the unit (µs/ms/s) per value, matching the
				// local dashboard, so µs-scale service times don't print
				// as "0.0ms" next to second-scale playout histograms.
				fmt.Printf("  %-40s %-10s n=%d mean=%s p50=%s p95=%s p99=%s min=%s max=%s\n",
					p.Name, p.Kind, p.Count, obs.FmtMS(p.Value),
					obs.FmtMS(p.P50), obs.FmtMS(p.P95), obs.FmtMS(p.P99),
					obs.FmtMS(p.Min), obs.FmtMS(p.Max))
				continue
			}
			fmt.Printf("  %-40s %-10s %.0f\n", p.Name, p.Kind, p.Value)
		}

	case "local":
		fmt.Print(scope.Dashboard(15))

	case "back":
		if !c.Back() {
			fmt.Println("  nowhere to go back to")
		}
	case "forward":
		if !c.Forward() {
			fmt.Println("  nowhere to go forward to")
		}

	case "history":
		for i, h := range c.History() {
			fmt.Printf("  %d. %s\n", i+1, h)
		}

	case "state":
		fmt.Printf("  %s: %s\n", serverName, c.State(serverName))

	default:
		fmt.Println("unknown command:", cmd)
	}
	return true
}
