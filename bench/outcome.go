package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/protocol"
)

// outcome is everything simulated about one repetition, read through the
// product's public accessors after the run.
type outcome struct {
	ops, failed int

	connectMS, startupMS, handoffMS, recoverMS, skewMS []float64

	frames, gaps, holds, drops, due int64
	redirects, handoffs, timeouts   int64

	events                   uint64
	sent, delivered, dropped int64
	bytes                    int64
	admissions               int64
	viewerSeconds            float64

	// digest folds what the product reproduces exactly for a seed; playout
	// folds what it does not (see collect).
	digest, playout uint64
	// shortfall names the first started viewer that presented less than
	// the workload's minPresented share of its expected frames.
	shortfall string
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// story is what one viewer's lifecycle log says happened, as offsets from
// the epoch (-1 = never).
type story struct {
	connected time.Duration   // first "connected to"
	started   time.Duration   // first "presentation started" after the click
	recovered time.Duration   // first start/resume after losing the killed server
	handoffs  []time.Duration // each "handoff a → b" → "handoff complete"
	redirects int64
	timeouts  int64
}

// readStory parses client.Events(): the client has no callbacks, the log is
// its public record.
func (v *viewer) readStory() story {
	st := story{connected: -1, started: -1, recovered: -1}
	handoffAt, lostAt := time.Duration(-1), time.Duration(-1)
	kill, killed := v.w.wl.killAt, "liveness lost: "+serverName(0)
	for _, ev := range v.c.Events() {
		at, what := ev.At.Sub(v.w.epoch), ev.What
		back := false
		switch {
		case strings.HasPrefix(what, "connected to "):
			if st.connected < 0 {
				st.connected = at
			}
		case what == "presentation started":
			if st.started < 0 && v.requestAt >= 0 && at >= v.requestAt {
				st.started = at
			}
			back = true
		case strings.HasPrefix(what, "session recovered"):
			back = true
		case what == killed:
			if kill > 0 && at >= kill && lostAt < 0 {
				lostAt = at
			}
		case strings.HasPrefix(what, "handoff complete"):
			if handoffAt >= 0 {
				st.handoffs = append(st.handoffs, at-handoffAt)
				handoffAt = -1
			}
		case strings.HasPrefix(what, "handoff "+serverPrefix) && handoffAt < 0:
			// "handoff srvA → srvB"; the connect/fallback/refused lines
			// of the same episode do not start with a server name.
			handoffAt = at
		case strings.HasPrefix(what, "redirect "+serverPrefix):
			st.redirects++ // "redirect srvA → srvB (hop n)"
		case strings.HasPrefix(what, "request timeout"):
			st.timeouts++
		}
		if back && lostAt >= 0 && st.recovered < 0 {
			st.recovered = at
		}
	}
	return st
}

// collect reads every viewer's lifecycle log and playout report.
func (w *world) collect() outcome {
	o := outcome{ops: len(w.viewers), events: w.clk.FiredCount()}
	sent, delivered, dropped, byts := w.net.Totals()
	o.sent, o.delivered, o.dropped, o.bytes = int64(sent), int64(delivered), int64(dropped), byts
	for _, s := range w.servers {
		o.admissions += s.Admission().Decisions()
	}
	// Two digests, because the product does not reproduce everything. The
	// server starts a session's senders by ranging over a map, so streams
	// due at the same instant (an AU_VI pair, every 40 ms) go out in an order
	// that differs run to run. On a lossy link that moves a loss draw from
	// one stream's packet to the other's; when it lands on a reliable packet
	// it becomes a retransmission instead of a drop, and on a congested link
	// it changes what the grader sheds. Every latency, every lifecycle count
	// and each viewer's frames due are unaffected and fold into the digest
	// that must repeat; packet totals, events fired and the plays/gaps
	// split fold into a second one that is only reported.
	d, pd := newDigest(), newDigest()
	pd.add(w.net.DeliveryDigest(), uint64(sent), uint64(delivered), uint64(dropped), uint64(byts), o.events)

	for i, v := range w.viewers {
		st := v.readStory()
		o.redirects += st.redirects
		o.timeouts += st.timeouts
		o.handoffs += int64(len(st.handoffs))
		for _, h := range st.handoffs {
			o.handoffMS = append(o.handoffMS, ms(h))
		}
		if st.recovered >= 0 {
			o.recoverMS = append(o.recoverMS, ms(st.recovered-w.wl.killAt))
		}
		failed := st.connected < 0
		if !failed {
			o.connectMS = append(o.connectMS, ms(st.connected-v.plan.arrive))
		}

		var plays, gaps, due int64
		switch {
		case !w.wl.media:
			failed = failed || v.requestAt < 0 || len(v.c.Topics()) == 0
		case st.started < 0:
			// Never started: every frame of the lesson was missed.
			failed = true
			gaps, due = v.lessonFrames, v.lessonFrames
		default:
			o.startupMS = append(o.startupMS, ms(st.started-v.requestAt))
			var expected int64
			rep := v.c.Player().Report()
			for _, sr := range rep.Streams {
				plays += int64(sr.Plays)
				gaps += int64(sr.Gaps)
				o.holds += int64(sr.Holds)
				o.drops += int64(sr.Drops)
				due += int64(sr.Plays + sr.Gaps + sr.Holds)
				expected += int64(sr.Expected)
			}
			for _, s := range rep.Skew {
				for _, x := range s.Values() {
					o.skewMS = append(o.skewMS, math.Abs(x))
				}
			}
			if o.shortfall == "" && float64(plays) < w.wl.minPresented*float64(expected) {
				o.shortfall = fmt.Sprintf("viewer %d presented %d of %d expected frames", i, plays, expected)
			}
		}
		o.frames += plays
		o.gaps += gaps
		o.due += due
		if w.wl.horizon > 0 {
			// The run ends mid-lesson: everyone should still be watching.
			viewing := false
			for j := range w.servers {
				viewing = viewing || v.c.State(serverName(j)) == protocol.StViewing
			}
			failed = failed || !viewing
			o.viewerSeconds += (w.end - v.plan.arrive).Seconds()
		} else {
			o.viewerSeconds += v.lessonLen.Seconds()
		}
		if failed {
			o.failed++
		}
		d.add(uint64(due), uint64(st.connected), uint64(st.started))
		pd.add(uint64(plays), uint64(gaps))
	}
	d.add(uint64(o.failed), uint64(o.redirects), uint64(o.handoffs), uint64(o.timeouts))
	for _, xs := range [][]float64{o.handoffMS, o.recoverMS} {
		for _, x := range xs {
			d.add(math.Float64bits(x))
		}
	}
	o.digest, o.playout = d.sum(), pd.sum()
	return o
}
