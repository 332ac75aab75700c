// Package experiments implements the reproduction harness: one runner per
// figure (F1–F5), per evaluated claim (E1–E8) of the paper and per extension
// and ablation, as indexed in DESIGN.md. Each runner returns printable
// tables (and, for the timeline, the rendered chart); cmd/experiments
// prints them, and the package's tests gate each one's shape.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/rtp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// F1Grammar exercises every production of the Figure 1 grammar: it parses
// the corpus, validates, serializes and re-parses each document, and reports
// composition statistics proving the round trip preserved structure.
func F1Grammar() (*stats.Table, error) {
	tb := stats.NewTable("F1 — Figure 1 grammar: corpus parse & round-trip",
		"document", "sentences", "media", "links", "timed", "round-trip")
	corpus := hml.GrammarCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		doc, err := hml.Parse(corpus[name])
		if err != nil {
			return nil, fmt.Errorf("F1 %s: %w", name, err)
		}
		st := hml.Statistics(doc)
		doc2, err := hml.Parse(hml.Serialize(doc))
		if err != nil {
			return nil, fmt.Errorf("F1 %s reparse: %w", name, err)
		}
		rt := "ok"
		if hml.Statistics(doc2) != st {
			rt = "CHANGED"
		}
		tb.AddRow(name, st.Sentences,
			st.Images+st.Audios+st.Videos+st.SyncGroups, st.Links, st.TimedLinks, rt)
	}
	return tb, nil
}

// F2Timeline reconstructs the Figure 2 playout timeline from the markup and
// verifies the temporal relations the figure illustrates.
func F2Timeline() (string, *stats.Table, error) {
	sc, err := scenario.Parse(hml.Figure2Source)
	if err != nil {
		return "", nil, err
	}
	chart := scenario.RenderTimeline(sc, 64)
	if bad := scenario.CheckFigure2Relations(sc); len(bad) > 0 {
		return chart, nil, fmt.Errorf("F2 relations violated: %s", strings.Join(bad, "; "))
	}
	sch := scenario.BuildSchedule(sc)
	if err := sch.Validate(); err != nil {
		return chart, nil, err
	}
	tb := stats.NewTable("F2 — Figure 2 scenario: playout schedule (E_i structures)",
		"stream", "type", "t_i", "d_i", "sync peers")
	for _, e := range sch.Entries {
		peers := strings.Join(e.Peers, ",")
		if peers == "" {
			peers = "-"
		}
		tb.AddRow(e.Stream.ID, e.Stream.Type.String(), e.PlayAt, e.Stream.Duration, peers)
	}
	return chart, tb, nil
}

// F3EndToEnd runs the complete Figure 3 architecture on the Figure 2
// scenario over a clean LAN and reports per-stream playout quality.
func F3EndToEnd(seed uint64) (*stats.Table, *core.Result, error) {
	res, err := core.Play(core.PlayConfig{DocSource: hml.Figure2Source, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	tb := stats.NewTable("F3 — Figure 3 architecture: end-to-end session (clean LAN)",
		"stream", "plays", "expected", "gaps", "drops", "mean late (ms)")
	ids := make([]string, 0, len(res.Playout.Streams))
	for id := range res.Playout.Streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := res.Playout.Streams[id]
		tb.AddRow(id, s.Plays, s.Expected, s.Gaps, s.Drops, s.MeanLatenessMS)
	}
	tb.AddRow("TOTAL", res.Plays(), res.Expected(), res.Gaps(), res.Drops(),
		fmt.Sprintf("startup %.0fms", float64(res.Startup)/float64(time.Millisecond)))
	return tb, res, nil
}

// F4Protocol verifies the Figure 4 state machine: every state reachable,
// every edge drivable, and every illegal input rejected without a state
// change.
func F4Protocol() (*stats.Table, error) {
	edges := protocol.Edges()
	states := protocol.States()
	inputs := protocol.Inputs()

	// BFS paths to each state.
	paths := map[protocol.State][]protocol.Input{protocol.StIdle: {}}
	frontier := []protocol.State{protocol.StIdle}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, e := range edges {
			if e.From != s {
				continue
			}
			if _, ok := paths[e.To]; !ok {
				paths[e.To] = append(append([]protocol.Input{}, paths[s]...), e.Input)
				frontier = append(frontier, e.To)
			}
		}
	}
	driven := 0
	for _, e := range edges {
		m := &protocol.Machine{}
		for _, in := range paths[e.From] {
			if err := m.Apply(in); err != nil {
				return nil, fmt.Errorf("F4 replay: %w", err)
			}
		}
		if err := m.Apply(e.Input); err != nil || m.State() != e.To {
			return nil, fmt.Errorf("F4 edge %v--%v: err=%v state=%v", e.From, e.Input, err, m.State())
		}
		driven++
	}
	illegal, rejected := 0, 0
	for _, s := range states {
		m := &protocol.Machine{}
		for _, in := range paths[s] {
			m.Apply(in)
		}
		for _, in := range inputs {
			probe := *m
			if probe.Apply(in) == nil {
				continue
			}
			illegal++
			if probe.State() == m.State() {
				rejected++
			}
		}
	}
	tb := stats.NewTable("F4 — Figure 4 application state machine",
		"metric", "value")
	tb.AddRow("states", len(states))
	tb.AddRow("reachable states", len(paths))
	tb.AddRow("legal transitions (edges)", len(edges))
	tb.AddRow("edges driven successfully", driven)
	tb.AddRow("illegal (state,input) pairs", illegal)
	tb.AddRow("illegal inputs rejected cleanly", rejected)
	if len(paths) != len(states) || driven != len(edges) || rejected != illegal {
		return tb, fmt.Errorf("F4 coverage incomplete")
	}
	return tb, nil
}

// StackSplit is the F5 byte accounting per protocol path.
type StackSplit struct {
	ControlBytes  int64 // application protocol over the reliable path
	FeedbackBytes int64 // RTCP receiver reports (within control messages)
	StillBytes    int64 // images/text RTP over the reliable (TCP) path
	AVBytes       int64 // audio/video RTP over UDP
	AudioBytes    int64
	VideoBytes    int64
	Packets       int
}

// F5StackSplit plays the Figure 2 scenario while classifying every packet by
// protocol layer, reproducing the Figure 5 protocol-stack division: TCP for
// the scenario and non-time-sensitive media, RTP/UDP for audio/video, RTCP
// feedback, SMTP/MIME for the asynchronous interaction.
func F5StackSplit(seed uint64) (*stats.Table, *StackSplit, error) {
	var split StackSplit
	sniff := func(p netsim.Packet) {
		split.Packets++
		n := int64(p.Size())
		var pkt rtp.Packet
		isRTP := pkt.Unmarshal(p.Payload) == nil
		if !p.Reliable {
			// Unreliable datagrams are RTP media.
			split.AVBytes += n
			if isRTP {
				switch pkt.PayloadType {
				case rtp.PTPCM, rtp.PTADPCM, rtp.PTVADPCM:
					split.AudioBytes += n
				default:
					split.VideoBytes += n
				}
			}
			return
		}
		// Reliable path: either RTP stills or control messages.
		if isRTP && (pkt.PayloadType == rtp.PTJPEG || pkt.PayloadType == rtp.PTGIF || pkt.PayloadType == rtp.PTText) {
			split.StillBytes += n
			return
		}
		split.ControlBytes += n
		if len(p.Payload) > 0 && protocol.MsgType(p.Payload[0]) == protocol.MsgFeedback {
			split.FeedbackBytes += n
		}
	}
	_, err := core.Play(core.PlayConfig{DocSource: hml.Figure2Source, Seed: seed, Sniffer: sniff})
	if err != nil {
		return nil, nil, err
	}
	tb := stats.NewTable("F5 — Figure 5 protocol stack: bytes per path (one Figure 2 session)",
		"layer / path", "bytes", "share")
	total := split.ControlBytes + split.StillBytes + split.AVBytes
	pct := func(b int64) string { return fmt.Sprintf("%.1f%%", 100*float64(b)/float64(total)) }
	tb.AddRow("application control (TCP)", split.ControlBytes, pct(split.ControlBytes))
	tb.AddRow("  of which RTCP feedback", split.FeedbackBytes, pct(split.FeedbackBytes))
	tb.AddRow("stills: RTP over TCP path", split.StillBytes, pct(split.StillBytes))
	tb.AddRow("audio/video: RTP over UDP", split.AVBytes, pct(split.AVBytes))
	tb.AddRow("  audio", split.AudioBytes, pct(split.AudioBytes))
	tb.AddRow("  video", split.VideoBytes, pct(split.VideoBytes))
	tb.AddRow("total", total, "100%")
	return tb, &split, nil
}

// avDoc builds a single synchronized audio+video scenario of the given
// length — the canonical workload for the buffering/sync experiments.
func avDoc(d time.Duration) string {
	return fmt.Sprintf(`<TITLE>av workload</TITLE>
<AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=%s> </AU_VI>`, hml.FormatTime(d))
}
