package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Registry is a get-or-create store of named instruments. Lookup takes a
// read lock; components fetch their instruments once at construction, so
// the hot path is pure atomic ops on the instrument itself.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*stats.Counter
	gauges   map[string]*stats.Gauge
	highs    map[string]*stats.HighWater
	hists    map[string]*stats.DurationHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*stats.Counter),
		gauges:   make(map[string]*stats.Gauge),
		highs:    make(map[string]*stats.HighWater),
		hists:    make(map[string]*stats.DurationHistogram),
	}
}

// Label renders a labeled family member name, e.g.
// Label("buffer_pushed", "stream", "vi/c") → `buffer_pushed{stream=vi/c}`.
// Pairs must come as key, value, key, value… Values containing reserved
// characters ({ } = , " or space) are double-quoted with backslash escapes,
// so distinct label sets can never collide on one rendered name.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		writeLabelValue(&b, kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func writeLabelValue(b *strings.Builder, v string) {
	if !strings.ContainsAny(v, "{}=,\" \\") {
		b.WriteString(v)
		return
	}
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		if v[i] == '"' || v[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	b.WriteByte('"')
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *stats.Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(stats.Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *stats.Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(stats.Gauge)
		r.gauges[name] = g
	}
	return g
}

// HighWater returns the named high-water mark, creating it on first use.
func (r *Registry) HighWater(name string) *stats.HighWater {
	r.mu.RLock()
	h := r.highs[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.highs[name]; h == nil {
		h = new(stats.HighWater)
		r.highs[name] = h
	}
	return h
}

// Histogram returns the named duration histogram (default latency bounds),
// creating it on first use.
func (r *Registry) Histogram(name string) *stats.DurationHistogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = stats.NewDurationHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramBounds is Histogram with explicit bucket bounds used on first
// creation (an existing histogram is returned as-is, whatever its bounds —
// get-or-create identity wins over bounds).
func (r *Registry) HistogramBounds(name string, bounds ...time.Duration) *stats.DurationHistogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = stats.NewDurationHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// MetricPoint is one instrument's snapshot. For histograms Value is the
// mean and the count/min/max/quantile fields are set; every duration field
// is in milliseconds, as its `_ms` JSON suffix says (BENCH files report
// microsecond fields with an `_us` suffix — the unit always rides on the
// name).
type MetricPoint struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // counter | gauge | highwater | histogram
	Value float64 `json:"value"`
	Count int64   `json:"count,omitempty"` // histogram observation count
	P50   float64 `json:"p50_ms,omitempty"`
	P95   float64 `json:"p95_ms,omitempty"`
	P99   float64 `json:"p99_ms,omitempty"`
	Min   float64 `json:"min_ms,omitempty"`
	Max   float64 `json:"max_ms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FmtMS renders a millisecond quantity with an explicit unit, dropping to
// µs below 1ms and rising to s above 1000ms, so dashboards stay readable
// across the µs-scale service-time histograms and the s-scale playout ones.
func FmtMS(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1:
		return fmt.Sprintf("%.0fµs", v*1000)
	case v >= 1000:
		return fmt.Sprintf("%.2fs", v/1000)
	default:
		return fmt.Sprintf("%.1fms", v)
	}
}

// Snapshot returns every instrument's current value, sorted by name.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MetricPoint, 0, len(r.counters)+len(r.gauges)+len(r.highs)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, MetricPoint{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, MetricPoint{Name: name, Kind: "gauge", Value: float64(g.Value())})
	}
	for name, h := range r.highs {
		out = append(out, MetricPoint{Name: name, Kind: "highwater", Value: float64(h.Value())})
	}
	for name, h := range r.hists {
		out = append(out, MetricPoint{
			Name: name, Kind: "histogram",
			Value: ms(h.Mean()), Count: h.N(),
			P50: ms(h.P50()), P95: ms(h.P95()), P99: ms(h.P99()),
			Min: ms(h.Min()), Max: ms(h.Max()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table renders the snapshot as a text table.
func (r *Registry) Table() *stats.Table {
	tb := stats.NewTable("metrics", "name", "kind", "value", "detail")
	for _, p := range r.Snapshot() {
		detail := ""
		value := fmt.Sprintf("%.0f", p.Value)
		if p.Kind == "histogram" {
			value = FmtMS(p.Value)
			detail = fmt.Sprintf("n=%d p50=%s p95=%s p99=%s min=%s max=%s",
				p.Count, FmtMS(p.P50), FmtMS(p.P95), FmtMS(p.P99), FmtMS(p.Min), FmtMS(p.Max))
		}
		tb.AddRow(p.Name, p.Kind, value, detail)
	}
	return tb
}
