package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total") != c {
		t.Fatal("Counter is not idempotent")
	}
	g := r.Gauge("queue_depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.sum != 56.05 {
		t.Fatalf("sum = %g, want 56.05", h.sum)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_count 5",
		"latency_seconds_sum 56.05",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextSorted(t *testing.T) {
	r := New()
	r.Counter("b_total").Inc()
	r.Counter("a_total").Inc()
	r.Gauge("c_level").Set(2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := []string{"a_total 1", "b_total 1", "c_level 2"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestHistogramBlockOrder(t *testing.T) {
	// Bucket lines must form a contiguous block in ascending bound order
	// with le="+Inf" last — not interleaved lexically (where "+Inf"
	// sorts before digits and "30" before "5").
	r := New()
	r.Counter("a_total").Inc()
	r.Counter("z_total").Inc()
	h := r.Histogram("lat", []float64{5, 30})
	for _, v := range []float64{1, 20, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := []string{
		"a_total 1",
		`lat_bucket{le="5"} 1`,
		`lat_bucket{le="30"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 121",
		"lat_count 3",
		"z_total 1",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits_total").Inc()
				r.Gauge("level").Add(1)
				r.Histogram("obs", nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
	if got := r.Histogram("obs", nil).Count(); got != 8000 {
		t.Fatalf("observations = %d, want 8000", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}
