// Package stats provides the small measurement toolkit used by the
// experiment harness and the hot paths: Sample (exact percentiles, for
// experiments and tests), DurationHistogram (lock-free fixed buckets, for the
// hot path), time series, counters, a seeded RNG and plain-text table
// rendering.
//
// Everything here is deliberately dependency-free and deterministic so that
// experiment output is reproducible byte-for-byte.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample retains every observation for exact percentile queries (O(N)
// memory): the tool of experiments and tests. Hot paths that must not grow
// use DurationHistogram.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Values returns a copy of the observations in insertion order is not
// guaranteed; the slice is sorted ascending.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Point is one time-stamped observation in a Series.
type Point struct {
	T time.Duration // offset from the series origin
	V float64
}

// Series is an append-only time series of observations, used to record
// quality-level and occupancy trajectories during experiments.
type Series struct {
	Name   string
	points []Point
}

// Add appends an observation at offset t.
func (s *Series) Add(t time.Duration, v float64) { s.points = append(s.points, Point{t, v}) }

// Points returns the recorded points in insertion order.
func (s *Series) Points() []Point { return s.points }

// TimeWeightedMean integrates the step function described by the series over
// [0, horizon] and returns the mean value. Empty series yield 0.
func (s *Series) TimeWeightedMean(horizon time.Duration) float64 {
	if len(s.points) == 0 || horizon <= 0 {
		return 0
	}
	var acc float64
	for i, p := range s.points {
		if p.T >= horizon {
			break
		}
		end := horizon
		if i+1 < len(s.points) && s.points[i+1].T < horizon {
			end = s.points[i+1].T
		}
		acc += p.V * float64(end-p.T)
	}
	// Before the first point the value is taken as the first value.
	if s.points[0].T > 0 {
		first := s.points[0].T
		if first > horizon {
			first = horizon
		}
		acc += s.points[0].V * float64(first)
	}
	return acc / float64(horizon)
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.1fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(t.headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
