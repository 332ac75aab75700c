package hermes

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// RunBrowser is hermes, the interactive Hermes browser: it connects to a
// server, then runs the -script commands or reads commands from env.Stdin
// until quit or end of input. args is the command line, program name
// first, as in os.Args; a bad flag exits the process with status 2, as the
// flag package does.
func RunBrowser(args []string, env Env) error {
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	fs.SetOutput(env.Stderr)
	serverName := fs.String("server", "hermes-a", "server host name")
	user := fs.String("user", "student", "user name")
	password := fs.String("pass", "pw", "password")
	hostname := fs.String("name", "browser-1", "this browser's host name")
	hostmap := fs.String("hosts", "", "host=ip overrides")
	script := fs.String("script", "", "semicolon-separated commands to run non-interactively")
	tracePath := fs.String("trace", "", "write the JSONL event trace to this file at exit")
	heartbeatEvery := fs.Duration("heartbeat-every", time.Second, "session heartbeat spacing")
	livenessMisses := fs.Int("liveness-misses", 3, "unanswered heartbeats before the server is declared dead")
	retryTimeout := fs.Duration("retry-timeout", 750*time.Millisecond, "initial control-request reply timeout")
	retryAttempts := fs.Int("retry-attempts", 5, "control-request transmissions before giving up")
	peers := fs.String("peers", "", "comma-separated replica servers seeding the failover/redirect set")
	fs.Parse(args[1:])
	out := env.Stdout

	scope := obs.NewScope(env.Clock)
	net, closeNet, err := env.Net(scope, *hostmap)
	if err != nil {
		return err
	}
	defer closeNet()
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
	c, err := client.New(*hostname, env.Clock, net, copts)
	if err != nil {
		return err
	}
	// Runs before the deferred closeNet, so the snapshot is complete.
	defer func() {
		fmt.Fprintf(env.Stderr, "hermes: cluster redirects followed=%d handoffs=%d completed=%d fallbacks=%d\n",
			scope.Counter("client_redirects_followed").Value(),
			scope.Counter("client_handoffs").Value(),
			scope.Counter("client_handoffs_completed").Value(),
			scope.Counter("client_handoff_fallbacks").Value())
		fmt.Fprint(env.Stderr, scope.Registry().Table())
		if *tracePath == "" {
			return
		}
		if err := writeFile(*tracePath, scope.Trace().WriteJSONL); err != nil {
			fmt.Fprintln(env.Stderr, "hermes:", err)
			return
		}
		fmt.Fprintf(env.Stderr, "hermes: wrote %d trace events to %s\n", scope.Trace().Len(), *tracePath)
	}()

	fmt.Fprintf(out, "hermes: connecting to %s as %s...\n", *serverName, *user)
	c.Connect(*serverName)
	// A Redirect answer is not terminal: the client is already backing off
	// toward a less-loaded peer, so keep waiting for the hop to resolve.
	env.Wait(5*time.Second, func() bool {
		lc := c.LastConnect()
		return lc != nil && !lc.Redirect
	})
	lc := c.LastConnect()
	switch {
	case lc == nil:
		return errors.New("no answer from server")
	case lc.Redirect:
		return fmt.Errorf("redirected but no peer admitted us: %s", lc.Reason)
	case lc.OK:
		fmt.Fprintf(out, "hermes: connected (session %s)\n", lc.SessionID)
	case lc.NeedSubscription:
		fmt.Fprintln(out, "hermes: not subscribed — use: subscribe <user> <pass> <email>")
	default:
		return fmt.Errorf("refused: %s", lc.Reason)
	}

	run := func(line string) bool { return execute(env, c, scope, *serverName, line) }
	if *script != "" {
		for _, cmd := range strings.Split(*script, ";") {
			if !run(strings.TrimSpace(cmd)) {
				break
			}
		}
		return nil
	}
	sc := bufio.NewScanner(env.Stdin)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		if !run(strings.TrimSpace(sc.Text())) {
			return nil
		}
		fmt.Fprint(out, "> ")
	}
	return nil
}

// execute runs one command line of the browser c and reports whether to
// read another.
func execute(env Env, c *client.Client, scope *obs.Scope, serverName, line string) bool {
	if line == "" {
		return true
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	out, wait := env.Stdout, env.Wait
	switch cmd {
	case "quit", "exit":
		c.Disconnect()
		wait(100*time.Millisecond, never)
		return false

	case "wait":
		d, err := time.ParseDuration(strings.Join(args, ""))
		if err != nil || d < 0 {
			fmt.Fprintln(out, "usage: wait <duration>")
			return true
		}
		wait(d, never)

	case "subscribe":
		if len(args) < 3 {
			fmt.Fprintln(out, "usage: subscribe <user> <password> <email>")
			return true
		}
		c.Subscribe(protocol.SubscriptionForm{
			User: args[0], Password: args[1], Email: args[2],
			RealName: args[0], Class: qos.Standard,
		})
		wait(2*time.Second, func() bool { return c.LastSubscribe() != nil })
		if ls := c.LastSubscribe(); ls != nil && ls.OK {
			fmt.Fprintln(out, "subscribed; reconnecting")
			c.Connect(serverName)
			wait(2*time.Second, func() bool { return c.LastConnect() != nil })
		} else if ls != nil {
			fmt.Fprintln(out, "refused:", ls.Reason)
		}

	case "topics":
		c.RequestTopics()
		wait(2*time.Second, func() bool { return len(c.Topics()) > 0 })
		for _, t := range c.Topics() {
			fmt.Fprintf(out, "  %-20s %q (%s)\n", t.Name, t.Title, t.Server)
		}

	case "search":
		if len(args) == 0 {
			fmt.Fprintln(out, "usage: search <token>")
			return true
		}
		c.Search(strings.Join(args, " "))
		wait(4*time.Second, func() bool { _, done := c.SearchResults(); return done })
		hits, _ := c.SearchResults()
		if len(hits) == 0 {
			fmt.Fprintln(out, "  no matches")
		}
		for _, h := range hits {
			fmt.Fprintf(out, "  %-20s %q on %s\n", h.Name, h.Title, h.Server)
		}

	case "get":
		if len(args) == 0 {
			fmt.Fprintln(out, "usage: get <lesson>")
			return true
		}
		c.RequestDoc(args[0])
		if !wait(5*time.Second, func() bool { return c.Player() != nil }) {
			fmt.Fprintln(out, "  no document:", c.LastError())
			return true
		}
		fmt.Fprintln(out, "  playing; 'pause'/'resume' control it, 'report' when done")

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
		wait(2*time.Second, func() bool { return c.Annotations() != nil })
		if ann := c.Annotations(); ann != nil {
			fmt.Fprintf(out, "  remarks on %s:\n", ann.Doc)
			for _, r := range ann.Records {
				fmt.Fprintf(out, "    [%s] %s\n", r.User, r.Text)
			}
		}

	case "report":
		p := c.Player()
		if p == nil {
			fmt.Fprintln(out, "  nothing played yet")
			return true
		}
		fmt.Fprint(out, p.Report().Summarize())
		fmt.Fprintf(out, "  startup delay %v, display events %d\n",
			c.StartupDelay(), c.Display().Len())

	case "stats":
		c.RequestStats()
		if !wait(2*time.Second, func() bool { return c.Stats() != nil }) {
			fmt.Fprintln(out, "  no stats answer from server")
			return true
		}
		st := c.Stats()
		fmt.Fprintf(out, "  server %s: %d metrics, trace %d events (%d dropped)\n",
			st.Server, len(st.Metrics), st.TraceEvents, st.TraceDropped)
		fmt.Fprint(out, obs.MetricsTable(st.Metrics))

	case "local":
		fmt.Fprint(out, scope.Dashboard(15))

	case "back":
		if !c.Back() {
			fmt.Fprintln(out, "  nowhere to go back to")
		}
	case "forward":
		if !c.Forward() {
			fmt.Fprintln(out, "  nowhere to go forward to")
		}

	case "history":
		for i, h := range c.History() {
			fmt.Fprintf(out, "  %d. %s\n", i+1, h)
		}

	case "state":
		fmt.Fprintf(out, "  %s: %s\n", serverName, c.State(serverName))

	default:
		fmt.Fprintln(out, "unknown command:", cmd)
	}
	return true
}
