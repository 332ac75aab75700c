package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// DurationHistogram counts duration observations into fixed buckets with
// lock-free atomic updates, so hot paths (playout ticks, transport writes)
// can record latencies without external locking. Quantiles are estimated by
// linear interpolation inside the bucket holding the target rank, which is
// the usual fixed-bucket trade-off: cheap concurrent writes, bounded error
// set by the bucket bounds.
//
// Concurrent Observe calls are individually atomic but not grouped, so a
// snapshot taken mid-write may be off by the in-flight observation — fine
// for monitoring, not for accounting.
type DurationHistogram struct {
	bounds []time.Duration // ascending upper bounds; immutable after New
	counts []atomic.Int64  // len(bounds)+1: last is the overflow bucket
	n      atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds high-water
	minp1  atomic.Int64 // nanoseconds low-water plus one; 0 = no observations
}

// DefaultLatencyBounds covers 1ms..10s in roughly 1-2-5 steps — suitable
// for playout lateness, queueing delay and control round trips.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
	}
}

// MicroLatencyBounds covers 10µs..100ms in roughly 1-2-5 steps — suitable
// for in-process service times (emit path, control handlers, lock waits)
// whose whole distribution sits below DefaultLatencyBounds' first bucket.
func MicroLatencyBounds() []time.Duration {
	return []time.Duration{
		10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond,
	}
}

// NewDurationHistogram builds a histogram over the given ascending bucket
// upper bounds; with no bounds it uses DefaultLatencyBounds.
func NewDurationHistogram(bounds ...time.Duration) *DurationHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	bs := make([]time.Duration, len(bounds))
	copy(bs, bounds)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending: %v", bounds))
		}
	}
	return &DurationHistogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one duration (negative observations clamp to zero).
func (h *DurationHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.minp1.Load()
		if (cur != 0 && int64(d)+1 >= cur) || h.minp1.CompareAndSwap(cur, int64(d)+1) {
			break
		}
	}
}

// N returns the number of observations.
func (h *DurationHistogram) N() int64 { return h.n.Load() }

// Mean returns the mean observation (0 when empty).
func (h *DurationHistogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation (0 when empty).
func (h *DurationHistogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Min returns the smallest observation (0 when empty).
func (h *DurationHistogram) Min() time.Duration {
	v := h.minp1.Load()
	if v == 0 {
		return 0
	}
	return time.Duration(v - 1)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by interpolating inside
// the bucket holding the target rank. Observations in the overflow bucket
// report as the last bound (a deliberate underestimate: the histogram does
// not know how far beyond it they went, beyond what Max reports).
func (h *DurationHistogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (target - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// P50, P95 and P99 are the monitoring quantiles.
func (h *DurationHistogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 returns the 95th percentile estimate.
func (h *DurationHistogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 returns the 99th percentile estimate.
func (h *DurationHistogram) P99() time.Duration { return h.Quantile(0.99) }

// String renders a one-line summary (count, mean and the three quantiles).
func (h *DurationHistogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms min=%.1fms max=%.1fms",
		h.N(),
		float64(h.Mean())/float64(time.Millisecond),
		float64(h.P50())/float64(time.Millisecond),
		float64(h.P95())/float64(time.Millisecond),
		float64(h.P99())/float64(time.Millisecond),
		float64(h.Min())/float64(time.Millisecond),
		float64(h.Max())/float64(time.Millisecond))
	return b.String()
}
