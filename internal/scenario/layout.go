package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/hml"
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

// union returns the bounding box of r and o.
func (r Region) union(o Region) Region {
	x, y := min(r.X, o.X), min(r.Y, o.Y)
	return Region{X: x, Y: y, W: max(r.Right(), o.Right()) - x, H: max(r.Bottom(), o.Bottom()) - y}
}

// ParseWhere parses the WHERE attribute's "x,y" coordinate form.
func ParseWhere(s string) (x, y int, err error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("scenario: bad WHERE %q (want \"x,y\")", s)
	}
	x, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("scenario: bad WHERE x in %q", s)
	}
	y, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("scenario: bad WHERE y in %q", s)
	}
	return x, y, nil
}

// RegionOf computes a stream's display region. Streams without WHERE default
// to the origin; streams without dimensions get 320×240.
func RegionOf(s *Stream) (Region, error) {
	x, y := 0, 0
	if s.Where != "" {
		var err error
		x, y, err = ParseWhere(s.Where)
		if err != nil {
			return Region{}, err
		}
	}
	w, h := s.Width, s.Height
	if w == 0 {
		w = 320
	}
	if h == 0 {
		h = 240
	}
	return Region{X: x, Y: y, W: w, H: h}, nil
}

// Placement is one visual stream and its display region; its start, end and
// activity are the stream's.
type Placement struct {
	*Stream
	Region Region
}

// Layout is the scenario's visual arrangement.
type Layout struct {
	Placements []Placement
	// Canvas is the bounding box of every placement.
	Canvas Region
}

// BuildLayout places the scenario's images and videos, in declaration
// order, at the times the scenario resolved for them.
func BuildLayout(sc *Scenario) (*Layout, error) {
	l := &Layout{}
	for _, s := range sc.Streams {
		if s.Type != TypeImage && s.Type != TypeVideo {
			continue
		}
		r, err := RegionOf(s)
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", s.Type, s.ID, err)
		}
		if len(l.Placements) == 0 {
			l.Canvas = r
		} else {
			l.Canvas = l.Canvas.union(r)
		}
		l.Placements = append(l.Placements, Placement{Stream: s, Region: r})
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
	for i, a := range l.Placements {
		for _, b := range l.Placements[i+1:] {
			from := max(a.Start, b.Start)
			if a.Region.Overlaps(b.Region) && a.ActiveAt(from) && b.ActiveAt(from) {
				out = append(out, Conflict{A: a.ID, B: b.ID, From: from})
			}
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
	fmt.Fprintf(&b, "desktop at t=%s (canvas %s)\n", hml.FormatTime(t), canvas)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
