package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sidr/internal/coords"
	"sidr/internal/datagen"
)

// workloadDef names a workload and why it exists; BENCHMARK.json repeats
// both (bench_test.go holds them equal).
type workloadDef struct {
	Name string
	Why  string
	// setup builds the workload's datasets and the system under test in
	// dir, from the seed alone. Everything it does is timed as setup_s.
	setup func(cfg runConfig, dir string, rec *recorder) (env, error)
}

var workloads = []workloadDef{
	{"scan_avg", "in-process avg over a large file: ncfile read + the Map kernel do almost all the work and almost nothing crosses the shuffle, so scan/kernel changes show here and shuffle changes must not", setupScanAvg},
	{"shuffle_median", "clustered median over loopback workers: a holistic operator defeats the combiner, so kv encode, pack write, batched fetch, decode and merge carry most of the wall and scan does little", setupShuffleMedian},
	{"prune_filter", "in-process filter_gt with an sidx index over a file whose matches live in one narrow row band: plan, I_l derivation, index probe and scheduling dominate, scan is mostly bypassed, 2 keyblocks get all", setupPruneFilter},
	{"join_zipf", "in-process two-input jcorr join, dense side against a zipf-sparse side, re-tiling on: the same Map/shuffle/Reduce layers through the join variant (plan-time sampling, side-tagged keys, share partials)", setupJoinZipf},
	{"serve_mix", "the daemon over HTTP, 2 closed-loop clients: 90% zipf over a hot set of 32 queries, 10% never-repeated ones; result cache, plan cache, admission, NDJSON stream, gzip and wire are on the path only here", setupServeMix},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
}

// pick returns the full-scale value, or the tiny one under -scale tiny.
func pick[T any](cfg runConfig, full, tiny T) T {
	if cfg.tiny {
		return tiny
	}
	return full
}

// sample is one timed query as its client saw it.
type sample struct {
	total, first float64 // seconds; first is NaN-free only when gotFirst
	gotFirst     bool
	points       int64 // logical input points of the query
	// executed: the system had to run the query. repeat: the same query
	// had been answered before. In-process and clustered runs have no
	// cache, so every timed query is both; behind the daemon a cold
	// request is executed only and a result-cache hit is repeat only.
	executed, repeat bool
	traced           bool
	// class is the query's cost class: on serve_mix the operator (avg,
	// median, filter_gt — a cold median costs three times a cold avg), 0
	// everywhere else.
	class int
	ok    bool  // no error and output equal to the reference
	err   error // why not ok, when an error (not a mismatch) is the reason
}

// tracedCount is the number of traced queries among samples, as the
// divisor that turns sums over them into per-query figures.
func tracedCount(samples []sample) float64 {
	var n float64
	for _, s := range samples {
		if s.traced {
			n++
		}
	}
	return n
}

func (s sample) failure() error {
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("output differs from the reference")
}

// env is one workload's system under test plus its load generator.
type env interface {
	// clients is the number of closed-loop clients (never above nproc).
	clients() int
	// probeQueries is how many queries each client runs per memory-probe
	// round: enough to cover the workload's mix once.
	probeQueries() int
	// prepare computes reference hashes; untimed harness cost.
	prepare() error
	// warm runs the untimed warm-up queries.
	warm() error
	// query runs the i-th timed query (traced or not) and checks it.
	query(i int, traced bool) sample
	// finish does checks deferred past the timed window and returns how
	// many more queries failed them.
	finish() (failed int, err error)
	// layers fills the per-layer metrics after a traced run from what the
	// traced timed queries left behind, then replays the layers.
	layers(m map[string]float64, samples []sample) error
	// params describes the workload's size for the output document.
	params() map[string]any
	close()
}

// outcome is everything one run reports.
type outcome struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	E2E       map[string]float64  `json:"e2e,omitempty"`
	Layers    map[string]float64  `json:"layers,omitempty"`
	Params    map[string]any      `json:"params"`
	Samples   map[string]any      `json:"samples"`
	Spans     map[string]spanStat `json:"spans,omitempty"`
}

// A run sets up at least minSetups times, and cheap set-ups repeat until
// setupBudget is spent or maxSetups is reached; setup_s is the median. A
// 35 ms set-up measured five times is mostly noise.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

// memoryRounds is how many times a run probes peak RSS; peak_rss_mb is
// the median.
const memoryRounds = 5

// runWorkload is one full run: set up, reference, warm up, the timed
// closed loop, deferred checks and — traced — the layer collection.
func runWorkload(cfg runConfig) (*outcome, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.Remove(workRoot) // succeeds once the last run's directory is gone
	dir, err := os.MkdirTemp(workRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var e env
	var setups []float64
	for i, began := 0, time.Now(); i < minSetups || (i < maxSetups && time.Since(began) < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if e, err = w.setup(cfg, sub, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	if err := e.prepare(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := e.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	// The closed loop: each client sends its next query only after the
	// previous one completed, until stop says so. Traced runs alternate
	// traced and untraced queries so both see the same machine state; the
	// alternation flips every ten queries so that serve_mix's every-tenth
	// cold request falls on both sides.
	var next atomic.Int64
	drive := func(stop func(i int) bool) []sample {
		var mu sync.Mutex
		var samples []sample
		var wg sync.WaitGroup
		for c := 0; c < e.clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if stop(i) {
						return
					}
					s := e.query(i, cfg.trace && (i+i/10)%2 == 1)
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return samples
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	samples := drive(func(int) bool { return !time.Now().Before(deadline) })
	wall := time.Since(start).Seconds()

	// The memory probe, after the timed window so it cannot disturb it:
	// each round returns the heap's free pages to the system, resets the
	// resident-set high-water mark, runs the next few queries of the
	// schedule and reads the mark. Set-up and reference computation — the
	// harness's own costs — are thereby kept out of peak_rss_mb, and the
	// median over rounds is steadier than a whole-run maximum that one
	// badly timed garbage collection sets.
	var peaks []float64
	var probes []sample // checked like timed queries, never timed
	for r := 0; r < memoryRounds && !cfg.trace; r++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		from := int(next.Load())
		probes = append(probes, drive(func(i int) bool { return i >= from+e.clients()*e.probeQueries() })...)
		peaks = append(peaks, peakRSSMB())
	}

	out := &outcome{Attempted: len(samples) + len(probes), Params: e.params(), Samples: map[string]any{}}
	out.Params["clients"] = e.clients()
	var points, completed int64
	var totals, firsts classed
	var hits, tracedHits, untracedHits []float64
	for _, s := range probes {
		if !s.ok {
			out.Failed++
		}
	}
	for _, s := range samples {
		if !s.ok {
			if out.Failed++; out.Failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: %s: query failed: %v\n", cfg.workload, s.failure())
			}
			continue
		}
		points += s.points
		completed++
		if s.executed {
			totals.add(s.class, s.total)
			if s.gotFirst {
				firsts.add(s.class, s.first)
			}
		}
		if s.repeat {
			hits = append(hits, s.total)
			// Tracing overhead is judged on repeated queries: every timed
			// query off the daemon, and behind it the large hit class.
			if s.traced {
				tracedHits = append(tracedHits, s.total)
			} else {
				untracedHits = append(untracedHits, s.total)
			}
		}
	}
	late, err := e.finish()
	if err != nil {
		return nil, fmt.Errorf("deferred checks: %w", err)
	}
	out.Failed += late
	for name, c := range map[string]classed{"query_total_s": totals, "first_result_s": firsts, "hit_p50_s": {0: hits}} {
		xs := c.all()
		info := map[string]any{"n": len(xs)}
		if p, v, ok := highPercentile(xs); ok {
			info["p"], info["p_value"] = p, v
		}
		if len(c) > 1 {
			byClass := make(map[string]float64)
			for class, v := range c {
				byClass[fmt.Sprint(class)] = median(v)
			}
			info["class_medians"] = byClass
		}
		out.Samples[name] = info
	}
	out.Samples["timed_wall_s"] = wall

	if !cfg.trace {
		if len(totals) == 0 || len(firsts) == 0 || len(hits) == 0 {
			return nil, fmt.Errorf("timed loop produced %d executed, %d first-result and %d repeat samples; need at least one of each",
				len(totals.all()), len(firsts.all()), len(hits))
		}
		out.E2E = map[string]float64{
			"setup_s":        median(setups),
			"query_total_s":  totals.median(),
			"first_result_s": firsts.median(),
			"points_per_s":   float64(points) / wall,
			"req_per_s":      float64(completed) / wall,
			"hit_p50_s":      median(hits),
			"peak_rss_mb":    median(peaks),
		}
		return out, nil
	}

	m := make(map[string]float64)
	if err := e.layers(m, samples); err != nil {
		return nil, fmt.Errorf("layer collection: %w", err)
	}
	if len(tracedHits) > 0 && len(untracedHits) > 0 {
		m["trace.overhead_ratio"] = median(tracedHits) / median(untracedHits)
	}
	if frac, ok := mapFracAtFirst(rec.all()); ok {
		m["mapreduce.map_frac_at_first"] = frac
	}
	out.Layers = m
	out.Spans = summarize(rec.all())
	if cfg.traceOut != "" {
		if err := rec.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classed holds latencies by cost class. Its median is the mean of the
// classes' medians: where every query costs the same (one class) that is
// the plain median; on serve_mix, whose cold requests are one third each
// of three operators by construction, it sits at the centre of each
// operator's mode. The plain median of that trimodal mix falls on the
// thin upper shoulder of the two cheap operators and moved by a quarter
// between runs of the same code.
type classed map[int][]float64

func (c *classed) add(class int, x float64) {
	if *c == nil {
		*c = make(classed)
	}
	(*c)[class] = append((*c)[class], x)
}

func (c classed) all() []float64 {
	var xs []float64
	for _, v := range c {
		xs = append(xs, v...)
	}
	return xs
}

func (c classed) median() float64 {
	var t float64
	for _, v := range c {
		t += median(v)
	}
	return t / float64(len(c))
}

// mapFracAtFirst is the paper's Fig. 9 figure: over the traced queries,
// the mean share of a query's Map tasks that had ended when its first
// result (the "first_result" span's end) arrived.
func mapFracAtFirst(spans []span) (frac float64, ok bool) {
	first := make(map[int64]int64)
	for _, s := range spans {
		if s.Name == "first_result" {
			first[s.Query] = s.End
		}
	}
	done := make(map[int64]int)
	all := make(map[int64]int)
	for _, s := range spans {
		if s.Name != "mapreduce.map_task" && s.Name != "client.map" {
			continue
		}
		at, ok := first[s.Query]
		if !ok {
			continue
		}
		all[s.Query]++
		if s.End <= at {
			done[s.Query]++
		}
	}
	var fracs []float64
	for q, n := range all {
		fracs = append(fracs, float64(done[q])/float64(n))
	}
	if len(fracs) == 0 {
		return 0, false
	}
	return sum(fracs) / float64(len(fracs)), true
}

// resetPeakRSS resets the kernel's resident-set high-water mark for this
// process to its current RSS. Where the kernel refuses, peaks stay
// whole-process maxima.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// writeFile materialises a generated dataset as an ncfile container.
func writeFile(dir, name, variable string, shape []int64, fn func(coords.Coord) float64) (string, error) {
	path := filepath.Join(dir, name+".ncf")
	return path, datagen.WriteDataset(path, variable, coords.NewShape(shape...), fn)
}

func size(shape []int64) int64 { return coords.NewShape(shape...).Size() }

func commas(xs []int64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// fullSlab renders "[0,.. : d0,..]" for a query over the whole shape.
func fullSlab(shape []int64) string {
	return fmt.Sprintf("[%s : %s]", commas(make([]int64, len(shape))), commas(shape))
}
