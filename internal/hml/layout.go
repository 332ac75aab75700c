package hml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The layout abstraction is one of the four logical layers of the paper's
// model ("content, layout, synchronization and interconnection"): "a set of
// rules that internally specify how the different media will be presented on
// the user's desktop". WHERE carries a media's display coordinates; together
// with WIDTH/HEIGHT it defines a region.

// Region is a display rectangle in desktop coordinates.
type Region struct {
	X, Y, W, H int
}

// Right and Bottom are the exclusive far edges.
func (r Region) Right() int { return r.X + r.W }

// Bottom is the exclusive lower edge.
func (r Region) Bottom() int { return r.Y + r.H }

// Overlaps reports whether two regions intersect.
func (r Region) Overlaps(o Region) bool {
	return r.X < o.Right() && o.X < r.Right() && r.Y < o.Bottom() && o.Y < r.Bottom()
}

// Empty reports a zero-area region.
func (r Region) Empty() bool { return r.W <= 0 || r.H <= 0 }

func (r Region) String() string {
	return fmt.Sprintf("(%d,%d %dx%d)", r.X, r.Y, r.W, r.H)
}

// ParseWhere parses the WHERE attribute's "x,y" coordinate form.
func ParseWhere(s string) (x, y int, err error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("hml: bad WHERE %q (want \"x,y\")", s)
	}
	x, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("hml: bad WHERE x in %q", s)
	}
	y, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("hml: bad WHERE y in %q", s)
	}
	return x, y, nil
}

// RegionOf computes a media element's display region. Media without WHERE
// default to the origin; media without dimensions get a media-type default
// (320×240 visuals). Audio has no region.
func RegionOf(m Media) (Region, error) {
	x, y := 0, 0
	if m.Where != "" {
		var err error
		x, y, err = ParseWhere(m.Where)
		if err != nil {
			return Region{}, err
		}
	}
	w, h := m.Width, m.Height
	if w == 0 {
		w = 320
	}
	if h == 0 {
		h = 240
	}
	return Region{X: x, Y: y, W: w, H: h}, nil
}

// Placement is one visual element's region and active interval.
type Placement struct {
	ID     string
	Kind   string // "image" or "video"
	Region Region
	Start  time.Duration
	// End is zero for open-ended stills.
	End time.Duration
}

// ActiveAt reports whether the placement is on screen at time t.
func (p Placement) ActiveAt(t time.Duration) bool {
	if t < p.Start {
		return false
	}
	return p.End == 0 || t < p.End
}

// Layout is the document's computed visual arrangement.
type Layout struct {
	Placements []Placement
	// Canvas is the bounding box of every placement.
	Canvas Region
}

// BuildLayout computes the layout of a document's visual media, resolving
// relative (AFTER) timing into absolute start times first so temporal
// overlap checks are exact.
func BuildLayout(d *Document) (*Layout, error) {
	starts, err := resolveDocTimes(d)
	if err != nil {
		return nil, err
	}
	l := &Layout{}
	add := func(m Media, kind string) error {
		r, err := RegionOf(m)
		if err != nil {
			return fmt.Errorf("%s %q: %w", kind, m.ID, err)
		}
		start := m.Start
		if s, ok := starts[m.ID]; ok {
			start = s
		}
		var end time.Duration
		if m.Duration > 0 {
			end = start + m.Duration
		}
		l.Placements = append(l.Placements, Placement{
			ID: m.ID, Kind: kind, Region: r, Start: start, End: end,
		})
		return nil
	}
	for _, it := range d.Items() {
		switch v := it.(type) {
		case *Image:
			if err := add(v.Media, "image"); err != nil {
				return nil, err
			}
		case *Video:
			if err := add(v.Media, "video"); err != nil {
				return nil, err
			}
		case *AudioVideo:
			if err := add(v.Video, "video"); err != nil {
				return nil, err
			}
		}
	}
	for i, p := range l.Placements {
		if i == 0 {
			l.Canvas = p.Region
			continue
		}
		if p.Region.X < l.Canvas.X {
			l.Canvas.W += l.Canvas.X - p.Region.X
			l.Canvas.X = p.Region.X
		}
		if p.Region.Y < l.Canvas.Y {
			l.Canvas.H += l.Canvas.Y - p.Region.Y
			l.Canvas.Y = p.Region.Y
		}
		if p.Region.Right() > l.Canvas.Right() {
			l.Canvas.W = p.Region.Right() - l.Canvas.X
		}
		if p.Region.Bottom() > l.Canvas.Bottom() {
			l.Canvas.H = p.Region.Bottom() - l.Canvas.Y
		}
	}
	return l, nil
}

// Conflict is a pair of placements visible at the same time in overlapping
// regions.
type Conflict struct {
	A, B string
	// From is the first instant both are on screen.
	From time.Duration
}

// Conflicts finds simultaneous spatial overlaps — layout mistakes an author
// would want flagged before publishing a scenario.
func (l *Layout) Conflicts() []Conflict {
	var out []Conflict
	for i := 0; i < len(l.Placements); i++ {
		for j := i + 1; j < len(l.Placements); j++ {
			a, b := l.Placements[i], l.Placements[j]
			if !a.Region.Overlaps(b.Region) {
				continue
			}
			from, ok := overlapStart(a, b)
			if !ok {
				continue
			}
			out = append(out, Conflict{A: a.ID, B: b.ID, From: from})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].A < out[j].A
	})
	return out
}

// overlapStart computes when two placements are first simultaneously active.
func overlapStart(a, b Placement) (time.Duration, bool) {
	from := a.Start
	if b.Start > from {
		from = b.Start
	}
	if a.End > 0 && from >= a.End {
		return 0, false
	}
	if b.End > 0 && from >= b.End {
		return 0, false
	}
	return from, true
}

// VisibleAt returns the placements on screen at time t, in declaration
// order.
func (l *Layout) VisibleAt(t time.Duration) []Placement {
	var out []Placement
	for _, p := range l.Placements {
		if p.ActiveAt(t) {
			out = append(out, p)
		}
	}
	return out
}

// RenderScreen draws an ASCII sketch of the desktop at time t: each visible
// placement is a box labelled by its ID — the textual stand-in for the
// browser's rendering surface, scaled to cols×rows characters.
func (l *Layout) RenderScreen(t time.Duration, cols, rows int) string {
	if cols < 16 {
		cols = 16
	}
	if rows < 8 {
		rows = 8
	}
	canvas := l.Canvas
	if canvas.Empty() {
		canvas = Region{W: 640, H: 480}
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	sx := func(x int) int {
		p := (x - canvas.X) * cols / max(canvas.W, 1)
		return min(max(p, 0), cols-1)
	}
	sy := func(y int) int {
		p := (y - canvas.Y) * rows / max(canvas.H, 1)
		return min(max(p, 0), rows-1)
	}
	for _, p := range l.VisibleAt(t) {
		x0, x1 := sx(p.Region.X), sx(p.Region.Right()-1)
		y0, y1 := sy(p.Region.Y), sy(p.Region.Bottom()-1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				c := byte('.')
				if y == y0 || y == y1 {
					c = '-'
				}
				if x == x0 || x == x1 {
					c = '|'
				}
				if (y == y0 || y == y1) && (x == x0 || x == x1) {
					c = '+'
				}
				grid[y][x] = c
			}
		}
		label := p.ID
		if len(label) > x1-x0-1 {
			if x1-x0-1 > 0 {
				label = label[:x1-x0-1]
			} else {
				label = ""
			}
		}
		copy(grid[(y0+y1)/2][x0+1:], label)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "desktop at t=%s (canvas %s)\n", FormatTime(t), canvas)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// resolveDocTimes computes every media element's absolute start time,
// resolving AFTER chains (target end + own STARTIME offset). It mirrors the
// scenario layer's resolution so layout checks agree with playout timing.
func resolveDocTimes(d *Document) (map[string]time.Duration, error) {
	type node struct {
		m Media
	}
	all := map[string]*node{}
	collect := func(m Media) {
		if m.ID != "" {
			all[m.ID] = &node{m: m}
		}
	}
	for _, it := range d.Items() {
		switch v := it.(type) {
		case *Image:
			collect(v.Media)
		case *Audio:
			collect(v.Media)
		case *Video:
			collect(v.Media)
		case *AudioVideo:
			collect(v.Audio)
			collect(v.Video)
		}
	}
	starts := map[string]time.Duration{}
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var resolve func(id string) (time.Duration, error)
	resolve = func(id string) (time.Duration, error) {
		n, ok := all[id]
		if !ok {
			return 0, fmt.Errorf("hml: AFTER references unknown media %q", id)
		}
		if state[id] == done {
			return starts[id], nil
		}
		if state[id] == visiting {
			return 0, fmt.Errorf("hml: AFTER cycle involving %q", id)
		}
		state[id] = visiting
		start := n.m.Start
		if n.m.After != "" {
			targetStart, err := resolve(n.m.After)
			if err != nil {
				return 0, err
			}
			target := all[n.m.After]
			start = targetStart + target.m.Duration + n.m.Start
		}
		starts[id] = start
		state[id] = done
		return start, nil
	}
	for id := range all {
		if _, err := resolve(id); err != nil {
			return nil, err
		}
	}
	return starts, nil
}
