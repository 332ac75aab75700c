package main

import (
	"math"
	"sort"
)

// The benchmark does its own arithmetic rather than borrow internal/stats:
// how a reported number is computed must not change when the product's
// statistics types do.

// percentile returns the p-th percentile (0–100) of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	s := sortedCopy(xs)
	return percentile(s, 75) - percentile(s, 25)
}

// tailLevels are the candidate tail percentiles in per mille, highest first;
// the median closes the list so that 20–39 samples still report something
// supported.
var tailLevels = []int{999, 990, 950, 900, 750, 500}

// tailBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const tailBeyond = 10

// tail returns the highest of p75/p90/p95/p99/p99.9 that has at least
// tailBeyond samples beyond it, and which one it chose. Fewer than 40 samples
// support no tail: the median stands in (level 50), and below 20 samples not
// even the median has ten beyond it, which level 0 says. No samples: NaN.
func tail(xs []float64) (value, level float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	for _, pm := range tailLevels {
		if n*(1000-pm)/1000 >= tailBeyond {
			return percentile(s, float64(pm)/10), float64(pm) / 10
		}
	}
	return percentile(s, 50), 0
}

// digest is FNV-1a over 64-bit words.
type digest uint64

func newDigest() *digest { d := digest(14695981039346656037); return &d }

func (d *digest) add(xs ...uint64) {
	h := uint64(*d)
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	*d = digest(h)
}

func (d *digest) sum() uint64 { return uint64(*d) }
