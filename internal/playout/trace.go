package playout

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
)

// RenderTrace draws what actually happened during a presentation: one row
// per stream with its scheduled playout span, overlaid with the trouble the
// display trace recorded — '!' gaps (missed deadlines), 'x' drops, 'h'
// holds, 'L' a late still. A clean presentation shows uninterrupted '='
// bars; congestion paints its history onto them.
func RenderTrace(disp *Display, sch *scenario.Schedule, width int) string {
	if width < 20 {
		width = 20
	}
	length := sch.Length
	if sch.HasLinkAt && sch.LinkAt > length {
		length = sch.LinkAt
	}
	if length <= 0 {
		return "(empty schedule)\n"
	}
	scale := func(t time.Duration) int {
		p := int(float64(t) / float64(length) * float64(width))
		if p < 0 {
			p = 0
		}
		if p > width-1 {
			p = width - 1
		}
		return p
	}
	idW := 2
	for _, e := range sch.Entries {
		if len(e.Stream.ID) > idW {
			idW = len(e.Stream.ID)
		}
	}
	events := disp.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "playout trace — %s scheduled, '!' gap  'x' drop  'h' hold  'L' late still\n", length)
	type trouble struct{ gaps, drops, holds int }
	for _, e := range sch.Entries {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		from := scale(e.PlayAt)
		to := width
		if e.Stream.Duration > 0 {
			to = scale(e.EndAt)
		}
		if to <= from {
			to = from + 1
		}
		for i := from; i < to && i < width; i++ {
			row[i] = '='
		}
		var tr trouble
		for _, ev := range events {
			if ev.StreamID != e.Stream.ID {
				continue
			}
			switch ev.Kind {
			case EvGap:
				row[scale(ev.At)] = '!'
				tr.gaps++
			case EvDrop:
				row[scale(ev.At)] = 'x'
				tr.drops++
			case EvHold:
				row[scale(ev.At)] = 'h'
				tr.holds++
			case EvLate:
				row[scale(ev.At)] = 'L'
			}
		}
		note := ""
		if tr.gaps+tr.drops+tr.holds > 0 {
			note = fmt.Sprintf("  (%d gaps, %d drops, %d holds)", tr.gaps, tr.drops, tr.holds)
		}
		fmt.Fprintf(&b, "%-*s |%s|%s\n", idW, e.Stream.ID, string(row), note)
	}
	return b.String()
}

// Summarize renders the per-stream quality report as text, ordered by
// stream id, then the skew of each sync group, ordered by group.
func (r Report) Summarize() string {
	ids := make([]string, 0, len(r.Streams))
	for id := range r.Streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		s := r.Streams[id]
		fmt.Fprintf(&b, "%-12s plays %4d/%4d  gaps %3d  drops %3d  holds %3d  late μ=%.1fms max=%.1fms\n",
			id, s.Plays, s.Expected, s.Gaps, s.Drops, s.Holds, s.MeanLatenessMS, s.MaxLatenessMS)
	}
	groups := make([]string, 0, len(r.Skew))
	for group := range r.Skew {
		groups = append(groups, group)
	}
	sort.Strings(groups)
	for _, group := range groups {
		sk := r.Skew[group]
		fmt.Fprintf(&b, "%-12s skew μ=%.1fms p95=%.1fms max=%.1fms (%d samples)\n",
			group, sk.Mean(), sk.Percentile(95), sk.Max(), sk.N())
	}
	return b.String()
}
