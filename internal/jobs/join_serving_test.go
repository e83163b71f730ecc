package jobs

import (
	"context"
	"strings"
	"testing"

	"sidr/internal/metrics"
)

const testJoinQuery = "join jsum a[0,0 : 32,32] es {8,8} with b[0,0 : 32,32] es {8,8}"

// TestJoinSubmitValidation checks the two-dataset contract at the door:
// a join query must carry dataset2, and dataset2 means nothing without
// a join query.
func TestJoinSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32})})

	if _, err := m.Submit(Request{Dataset: "a", Query: testJoinQuery}); err == nil ||
		!strings.Contains(err.Error(), "dataset2") {
		t.Fatalf("join without dataset2 accepted (err = %v)", err)
	}
	if _, err := m.Submit(Request{Dataset: "a", Dataset2: "b", Query: testQuery}); err == nil ||
		!strings.Contains(err.Error(), "dataset2") {
		t.Fatalf("dataset2 on a single-input query accepted (err = %v)", err)
	}
}

// TestJoinResultCacheKeyedOnBothDatasets is the regression test for the
// fast-path keying bug: the result-cache / collapse key must pin the
// version of EVERY input dataset. New side-B contents must miss the
// cache (previously only side A's version was keyed, so the stale join
// result would have been served).
func TestJoinResultCacheKeyedOnBothDatasets(t *testing.T) {
	reg := metrics.New()
	p := newVersionedProvider([]int64{32, 32})
	m := newTestManager(t, Config{Datasets: p, Metrics: reg})

	run := func() *Job {
		t.Helper()
		j, err := m.Submit(Request{Dataset: "a", Dataset2: "b", Query: testJoinQuery, Reducers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("state = %v (err %v)", st, j.Err())
		}
		return j
	}

	first := run()
	if first.Snapshot().Dataset2 != "b" {
		t.Fatalf("snapshot dataset2 = %q, want \"b\"", first.Snapshot().Dataset2)
	}
	if first.Snapshot().Skew == nil {
		t.Fatal("finished join job has no skew summary in its snapshot")
	}
	if kb := first.Snapshot().Skew.Keyblocks; kb <= 0 {
		t.Fatalf("skew summary covers %d keyblocks", kb)
	}

	// Identical repeat: both versions unchanged, so the cache serves it.
	repeat := run()
	if !repeat.Snapshot().ResultHit {
		t.Fatal("identical join repeat missed the result cache")
	}

	// Re-register ONLY the side-B dataset. The key must change: a cached
	// hit here would serve a result computed from b's old contents.
	p.bump("b")
	fresh := run()
	if fresh.Snapshot().ResultHit {
		t.Fatal("join served from cache after side-B re-registration")
	}
	if got, old := wireBytes(t, fresh.Result()), wireBytes(t, first.Result()); got == old {
		t.Fatal("re-registered side-B produced the old contents' result")
	}
	if got := reg.Counter("sidrd_jobs_done_total").Value(); got != 2 {
		t.Fatalf("executions = %d, want 2 (repeat cached, re-registration re-ran)", got)
	}
}

// TestJoinSkewMetricsPublished checks the per-job skew gauges: after a
// join finishes, the last-job skew gauges reflect its plan's keyblock
// loads.
func TestJoinSkewMetricsPublished(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32}), Metrics: reg})

	j, err := m.Submit(Request{Dataset: "a", Dataset2: "b", Query: testJoinQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j.Wait(context.Background()); st != Done {
		t.Fatalf("state = %v (err %v)", st, j.Err())
	}
	if got := reg.Gauge("sidrd_job_skew_keyblocks").Value(); got <= 0 {
		t.Fatalf("sidrd_job_skew_keyblocks = %d, want > 0", got)
	}
	// A perfectly balanced dense join still has max/mean == 1.0 == 1000
	// milli-units; anything at 0 means the gauge was never published.
	if got := reg.Gauge("sidrd_job_skew_max_over_mean_milli").Value(); got < 1000 {
		t.Fatalf("sidrd_job_skew_max_over_mean_milli = %d, want >= 1000", got)
	}
}
