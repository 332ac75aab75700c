package stats

import "sync/atomic"

// Counter is a concurrency-safe monotonically increasing counter, usable
// from hot paths without external locking. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// HighWater tracks the maximum value ever observed (a high-water mark,
// e.g. peak queue depth). The zero value is ready to use.
type HighWater struct {
	v atomic.Int64
}

// Observe records x, raising the mark if it is a new maximum.
func (h *HighWater) Observe(x int64) {
	for {
		cur := h.v.Load()
		if x <= cur || h.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Value returns the high-water mark (0 when nothing positive was observed).
func (h *HighWater) Value() int64 { return h.v.Load() }

// Gauge is a concurrency-safe instantaneous value (e.g. live sessions,
// reserved bandwidth). Unlike Counter it may move in both directions. The
// zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
