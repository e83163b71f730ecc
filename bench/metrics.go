package main

import (
	"math"
	"sort"
)

// metricDef declares one metric: the program emits exactly these names
// and BENCHMARK.json repeats them (bench_test.go holds the two equal).
// Bound is the share of the baseline median by which an end-to-end
// metric may worsen before -compare (and the driver) calls a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// e2eMetrics are what a user of the system sees. Every one is defined on
// every workload (see README.md "End-to-end metrics"), so none is ever
// absent or zero. The bounds are the widest the driver allows: two
// identical 10-run sets on the 2-core reference VM differ by up to 11 %
// in their medians and spread 3–14 % within a set on a quiet host, and
// past the bound during a host episode (README.md, log).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_total_s", "s", "lower", 0.25},
	{"first_result_s", "s", "lower", 0.25},
	{"points_per_s", "points/s", "higher", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"hit_p50_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// layerMetrics are measured from outside each layer (hooks + replay, see
// trace.go and replay.go). `_s` values are busy seconds per query.
var layerMetrics = []metricDef{
	{"query.parse_s", "s", "lower", 0},
	{"core.plan_s", "s", "lower", 0},
	{"core.splits", "count", "lower", 0},
	{"core.keyblocks", "count", "lower", 0},
	{"core.deps_total", "count", "lower", 0},
	{"sidx.build_s", "s", "lower", 0},
	{"sidx.index_bytes", "bytes", "lower", 0},
	{"sidx.probe_s", "s", "lower", 0},
	{"sidx.splits_kept_ratio", "ratio", "lower", 0},
	{"ncfile.read_s", "s", "lower", 0},
	{"ncfile.read_bytes", "bytes", "lower", 0},
	{"ncfile.read_calls", "count", "lower", 0},
	{"mapreduce.map_kernel_s", "s", "lower", 0},
	{"mapreduce.map_task_s", "s", "lower", 0},
	{"mapreduce.map_records", "count", "lower", 0},
	{"mapreduce.map_pairs_out", "count", "lower", 0},
	{"mapreduce.reduce_task_s", "s", "lower", 0},
	{"mapreduce.reduce_wait_s", "s", "lower", 0},
	{"mapreduce.map_frac_at_first", "ratio", "lower", 0},
	{"mapreduce.tasks_dispatched", "count", "lower", 0},
	{"skew.max_over_mean", "ratio", "lower", 0},
	{"skew.starved", "count", "lower", 0},
	{"kv.encode_s", "s", "lower", 0},
	{"kv.encode_bytes", "bytes", "lower", 0},
	{"kv.decode_s", "s", "lower", 0},
	{"kv.merge_s", "s", "lower", 0},
	{"kv.bytes_per_point", "B/point", "lower", 0},
	{"spillstore.write_s", "s", "lower", 0},
	{"spillstore.open_s", "s", "lower", 0},
	{"spillstore.pack_bytes", "bytes", "lower", 0},
	{"cluster.map_dispatch_s", "s", "lower", 0},
	{"cluster.fetch_s", "s", "lower", 0},
	{"cluster.worker_serve_s", "s", "lower", 0},
	{"cluster.fetch_requests", "count", "lower", 0},
	{"cluster.fetch_bytes", "bytes", "lower", 0},
	{"cluster.connections", "count", "lower", 0},
	{"cluster.dials", "count", "lower", 0},
	{"cluster.replica_pushes", "count", "lower", 0},
	{"cluster.replica_bytes", "bytes", "lower", 0},
	{"cluster.batch_fallbacks", "count", "lower", 0},
	{"cluster.retried", "count", "lower", 0},
	{"cluster.reexecuted", "count", "lower", 0},
	{"ops.apply_s", "s", "lower", 0},
	{"ops.values_out", "count", "higher", 0},
	{"join.plan_s", "s", "lower", 0},
	{"join.map_s", "s", "lower", 0},
	{"join.reduce_s", "s", "lower", 0},
	{"join.keyblocks", "count", "lower", 0},
	{"jobs.submit_to_done_s", "s", "lower", 0},
	{"jobs.result_cache_hit_ratio", "ratio", "higher", 0},
	{"jobs.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"jobs.collapsed", "count", "higher", 0},
	{"jobs.executed", "count", "lower", 0},
	{"server.http_overhead_s", "s", "lower", 0},
	{"server.stream_bytes", "bytes", "lower", 0},
	{"wire.encode_s", "s", "lower", 0},
	{"wire.encode_bytes", "bytes", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// median returns the middle of xs (mean of the two middles when even);
// NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile with the exclusive
// method Python's statistics.quantiles(values, n=4) uses, so the spread
// -compare prints is the one the driver computes. Fewer than two values
// have no spread: both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - j*4) // may extrapolate when clamped, as Python does
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// highPercentile returns the highest whole percentile that still keeps at
// least ten samples beyond it, and its value; ok is false below 100
// samples, where no tail is worth printing.
func highPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n < 100 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = (n - 10) * 100 / n
	if p > 99 {
		p = 99
	}
	return p, s[p*n/100], true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
