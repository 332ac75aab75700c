// Package core is the library's top-level API: it assembles the full
// on-demand hypermedia service (multimedia server, simulated broadband
// network, Hermes browser) around a single document and plays it, returning
// the complete set of quality metrics — playout report, intermedia skew,
// quality-grading trajectory, network statistics and startup delay.
//
// One call to Play is a complete instance of the paper's architecture
// (Figure 3) in motion: a one-server hermes.NewSimulated world, so the
// server is booted by the same cluster.New path as every federation. The
// experiment harness and the benchmarks are built on it.
package core

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/client"
	"repro/internal/hermes"
	"repro/internal/netsim"
	"repro/internal/playout"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stats"
)

// PlayConfig describes one single-document session experiment.
type PlayConfig struct {
	// DocSource is the document's HML text.
	DocSource string
	// Link configures the duplex server↔client network path.
	Link netsim.LinkConfig
	// Phases are congestion episodes applied to the media direction
	// (server → client).
	Phases []netsim.Phase
	// Seed drives all randomness (same seed = identical run).
	Seed uint64
	// Client tunes the browser (window, playout options, feedback).
	Client client.Options
	// Server tunes the server (grading policy, pre-roll, capacity).
	Server server.Options
	// RunFor bounds the simulation; zero runs scenario length + 10 s.
	RunFor time.Duration
	// Sniffer, when set, observes every packet sent on the simulated
	// network (protocol-stack accounting).
	Sniffer func(netsim.Packet)
}

// Result carries every metric of a completed session.
type Result struct {
	// Scenario is the parsed presentation scenario.
	Scenario *scenario.Scenario
	// Startup is the deliberate initial delay before playout began.
	Startup time.Duration
	// Playout is the per-stream quality report.
	Playout playout.Report
	// Display is the full playout trace.
	Display *playout.Display
	// Skew maps sync groups to their skew samples (milliseconds).
	Skew map[string]*stats.Sample
	// Actions is the server's quality-grading action log.
	Actions []qos.Action
	// LevelSeries maps stream ids to quality-level trajectories.
	LevelSeries map[string]*stats.Series
	// Net is the media-direction link statistics.
	Net netsim.LinkStats
	// Monitor exposes the client's final QoS measurements.
	Monitor []qos.Report
	// Buffers holds each stream buffer's lifetime counters (underflows,
	// duplications, drops, stale arrivals).
	Buffers map[string]buffer.Stats
}

// Play runs one complete session and collects the metrics.
func Play(cfg PlayConfig) (*Result, error) {
	sc, err := scenario.Parse(cfg.DocSource)
	if err != nil {
		return nil, err
	}
	svc, err := hermes.NewSimulated(hermes.Config{
		Servers: []hermes.ServerSpec{{Name: "server", Lessons: []hermes.LessonSpec{
			{Name: "doc", Source: cfg.DocSource, Description: "experiment document"},
		}}},
		ServerOptions: cfg.Server,
		Link:          cfg.Link,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	clk, net := svc.Clk, svc.Net
	net.Sniffer = cfg.Sniffer
	for _, p := range cfg.Phases {
		net.AddPhase("server", "viewer", p)
	}
	if err := svc.Enroll("user", "pw", qos.Economy); err != nil {
		return nil, err
	}

	copts := cfg.Client
	copts.User = "user"
	copts.Password = "pw"
	copts.Class = qos.Economy
	c, err := client.New("viewer", clk, net, copts)
	if err != nil {
		return nil, err
	}

	c.Connect("server")
	clk.RunFor(time.Second)
	if lc := c.LastConnect(); lc == nil || !lc.OK {
		reason := c.LastError()
		if lc != nil {
			reason = lc.Reason
		}
		return nil, fmt.Errorf("core: connection refused: %s", reason)
	}
	c.RequestDoc("doc")
	horizon := cfg.RunFor
	if horizon <= 0 {
		horizon = sc.Length() + 10*time.Second
	}
	clk.RunFor(horizon)

	res := &Result{
		Scenario:    c.Scenario(),
		Startup:     c.StartupDelay(),
		Display:     c.Display(),
		Net:         net.Stats("server", "viewer"),
		Monitor:     c.Monitor().Reports(),
		LevelSeries: map[string]*stats.Series{},
	}
	if res.Scenario == nil {
		res.Scenario = sc
	}
	if p := c.Player(); p != nil {
		res.Playout = p.Report()
		res.Skew = res.Playout.Skew
	}
	res.Buffers = map[string]buffer.Stats{}
	if bs := c.Buffers(); bs != nil {
		for _, b := range bs.All() {
			res.Buffers[b.StreamID] = b.Stats()
		}
	}
	if mgr := svc.Servers["server"].QoSManager(c.CtrlAddr()); mgr != nil {
		res.Actions = mgr.Actions()
		for _, st := range sc.TimedStreams() {
			if s := mgr.LevelSeries(st.ID); s != nil {
				res.LevelSeries[st.ID] = s
			}
		}
	}
	c.Disconnect()
	clk.RunFor(time.Second)
	return res, nil
}

// Gaps returns the total playout gaps across all streams.
func (r *Result) Gaps() int {
	n := 0
	for _, s := range r.Playout.Streams {
		n += s.Gaps
	}
	return n
}

// Drops returns the total frames discarded by short-term control.
func (r *Result) Drops() int {
	n := 0
	for _, s := range r.Playout.Streams {
		n += s.Drops
	}
	return n
}

// Plays returns the total frames presented.
func (r *Result) Plays() int {
	n := 0
	for _, s := range r.Playout.Streams {
		n += s.Plays
	}
	return n
}

// Expected returns the total nominal frame count.
func (r *Result) Expected() int {
	n := 0
	for _, s := range r.Playout.Streams {
		n += s.Expected
	}
	return n
}

// MaxSkewMS returns the worst intermedia skew observed (milliseconds).
func (r *Result) MaxSkewMS() float64 {
	max := 0.0
	for _, s := range r.Skew {
		if v := s.Max(); v > max {
			max = v
		}
	}
	return max
}

// MeanSkewMS returns the mean skew across groups (milliseconds).
func (r *Result) MeanSkewMS() float64 {
	var sum float64
	n := 0
	for _, s := range r.Skew {
		sum += s.Mean()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DegradeCount counts quality-degrade actions.
func (r *Result) DegradeCount() int {
	n := 0
	for _, a := range r.Actions {
		if a.Kind == qos.ActDegrade || a.Kind == qos.ActCutoff {
			n++
		}
	}
	return n
}

// QualityScore is the composite presentation-quality metric used by the E4
// experiment: the fraction of expected frames actually played, penalized by
// gap rate and by intermedia skew beyond the ±80 ms lip-sync tolerance.
// 1.0 is a perfect presentation; 0 is unusable.
func (r *Result) QualityScore() float64 {
	exp := r.Expected()
	if exp == 0 {
		return 0
	}
	playRatio := float64(r.Plays()) / float64(exp)
	if playRatio > 1 {
		playRatio = 1
	}
	gapPenalty := float64(r.Gaps()) / float64(exp)
	skewPenalty := 0.0
	for _, s := range r.Skew {
		if p95 := s.Percentile(95); p95 > 80 {
			over := (p95 - 80) / 1000 // seconds beyond tolerance
			if over > 0.5 {
				over = 0.5
			}
			skewPenalty += over
		}
	}
	score := playRatio - gapPenalty - skewPenalty
	if score < 0 {
		score = 0
	}
	return score
}
