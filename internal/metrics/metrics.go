// Package metrics is a dependency-free registry of named counters,
// gauges and histograms with an expvar-style plain-text exposition.
// The daemon (cmd/sidrd) serves it at GET /metrics; every instrument is
// safe for concurrent use and get-or-create registration is idempotent,
// so packages can look instruments up by name at the call site without
// coordinating initialisation order.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// level is the int64 a counter or a gauge holds.
type level struct {
	v atomic.Int64
}

// Value returns the current level.
func (l *level) Value() int64 { return l.v.Load() }

// Counter is a monotonically increasing int64.
type Counter struct {
	level
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Gauge is an instantaneous int64 level (queue depths, open handles).
type Gauge struct {
	level
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Histogram accumulates float64 observations into cumulative buckets
// with a sum and count, Prometheus-style.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf follows
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// defBuckets covers query latencies from 1 ms to ~2 min.
var defBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 120}

// Registry holds named instruments. The zero value is not usable; call
// New.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil means defBuckets). Later calls
// keep the original buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if bounds == nil {
			bounds = defBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
		r.histograms[name] = h
	}
	return h
}

// WriteText renders every instrument sorted by name. Counters and gauges
// are one "name value" line each; a histogram is a contiguous block of
// cumulative name_bucket{le="..."} lines in ascending bound order with
// le="+Inf" last, then name_sum and name_count.
func (r *Registry) WriteText(w io.Writer) error {
	type entry struct {
		name  string
		lines []string
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		entries = append(entries, entry{name, []string{fmt.Sprintf("%s %d", name, c.Value())}})
	}
	for name, g := range r.gauges {
		entries = append(entries, entry{name, []string{fmt.Sprintf("%s %d", name, g.Value())}})
	}
	for name, h := range r.histograms {
		h.mu.Lock()
		lines := make([]string, 0, len(h.bounds)+3)
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i]
			lines = append(lines, fmt.Sprintf("%s_bucket{le=%q} %d", name, formatBound(b), cum))
		}
		cum += h.counts[len(h.bounds)]
		lines = append(lines, fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", name, cum))
		lines = append(lines, fmt.Sprintf("%s_sum %g", name, h.sum))
		lines = append(lines, fmt.Sprintf("%s_count %d", name, h.count))
		h.mu.Unlock()
		entries = append(entries, entry{name, lines})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		for _, l := range e.lines {
			if _, err := fmt.Fprintln(w, l); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}
