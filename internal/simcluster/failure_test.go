package simcluster

import (
	"errors"
	"reflect"
	"testing"

	"sidr/internal/core"
	"sidr/internal/mapreduce"
	"sidr/internal/trace"
)

func TestConnSetupSerialisation(t *testing.T) {
	// §4.6: with a per-connection cost and a concurrency cap, a Reduce
	// task that must contact every Map pays for ceil(M/10) serial
	// batches; a dependency-only fetch pays almost nothing.
	cfg := tinyConfig()
	cfg.ConnSetup = 1.0
	cfg.MaxFetchConcurrency = 10
	sh, ss := plan(t, core.EngineSciHadoop, 128, 2), plan(t, core.EngineSIDR, 128, 2)
	all, deps := run(t, cfg, sh, workload(sh)), run(t, cfg, ss, workload(ss))
	// All-to-all pays ceil(32/10)=4 s of setup per reduce after the last
	// Map; I_ℓ pays ceil(16/10)=2 s.
	if got := all.Stats.Makespan - all.Stats.MapsDone; got < 4+5 {
		t.Fatalf("all-to-all reduce took %v s, want ≥ 4 s setup + 5 s base", got)
	}
	if got := deps.Stats.Makespan - deps.Stats.MapsDone; got >= 4+5 {
		t.Fatalf("dependency fetch took %v s, want 2 s setup + 5 s base + tail", got)
	}
}

func TestFailureModelPersistOverheadSlowsMaps(t *testing.T) {
	p := plan(t, core.EngineSciHadoop, 128, 2)
	r0 := run(t, tinyConfig(), p, workload(p))
	persisted := workload(p)
	persisted.Failure = &FailureModel{Prob: 0, Recompute: false, PersistOverhead: 0.5}
	r1 := run(t, tinyConfig(), p, persisted)
	if ratio := r1.Stats.MapsDone / r0.Stats.MapsDone; ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("persist overhead ratio = %v, want 1.5", ratio)
	}
	// Recompute mode pays no persistence overhead.
	recomp := workload(p)
	recomp.Failure = &FailureModel{Prob: 0, Recompute: true, PersistOverhead: 0.5}
	if r2 := run(t, tinyConfig(), p, recomp); r2.Stats.MapsDone != r0.Stats.MapsDone {
		t.Fatalf("recompute mode paid persistence: %v vs %v", r2.Stats.MapsDone, r0.Stats.MapsDone)
	}
}

func TestFailureRecoveryCosts(t *testing.T) {
	p := plan(t, core.EngineSIDR, 128, 2)
	strategy := func(recompute bool) *Result {
		job := workload(p)
		job.Failure = &FailureModel{Prob: 1.0, Recompute: recompute, PersistOverhead: 0.1}
		return run(t, tinyConfig(), p, job)
	}
	refetch, recompute := strategy(false), strategy(true)
	if refetch.Stats.FailedReduces != 2 || recompute.Stats.FailedReduces != 2 {
		t.Fatalf("failures = %d / %d, want 2 each", refetch.Stats.FailedReduces, recompute.Stats.FailedReduces)
	}
	// With every task failing, recompute pays re-executed Map work on
	// top of the refetch cost; it must be strictly slower.
	if !(recompute.Stats.Makespan > refetch.Stats.Makespan) {
		t.Fatalf("recompute %v not slower than refetch %v at 100%% failures",
			recompute.Stats.Makespan, refetch.Stats.Makespan)
	}
}

func TestFailureFreeRunsUnaffected(t *testing.T) {
	cfg := DefaultConfig() // jittered: the model must not consume a draw
	cfg.Workers = 2
	p := plan(t, core.EngineSIDR, 128, 2)
	withModel := workload(p)
	withModel.Failure = &FailureModel{Prob: 0, Recompute: true}
	if a, b := run(t, cfg, p, workload(p)), run(t, cfg, p, withModel); !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-probability failure model changed the run: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestRecomputeFailureRunsTheLoopsRearm: the no-persist strategy is not
// arithmetic — a failed Reduce task reports its I_ℓ lost and the job loop's
// own recovery (generations, un-enqueue, re-execution under the attempt
// budget) brings the job home. With Job.rearm a no-op this test fails with
// "mapreduce: job stalled".
func TestRecomputeFailureRunsTheLoopsRearm(t *testing.T) {
	cfg := tinyConfig()
	p := plan(t, core.EngineSIDR, 128, 4)
	strategy := func(recompute bool) (res *Result, lost int, commits []int) {
		loop := p.JobConfig(nil, nil)
		commits = make([]int, 4)
		lost = -len(p.Splits) // every Map starts once; a lost one starts again
		loop.OnEvent = func(e mapreduce.Event) {
			if e.Kind == mapreduce.MapStart {
				lost++
			}
		}
		loop.OnReduceOutput = func(o mapreduce.ReduceOutput) { commits[o.Keyblock]++ }
		job := workload(p)
		job.Failure = &FailureModel{Prob: 1, Recompute: recompute}
		res, err := Run(cfg, loop, job)
		if err != nil {
			t.Fatal(err)
		}
		return res, lost, commits
	}

	res, lost, commits := strategy(true)
	if res.Stats.FailedReduces != 4 {
		t.Fatalf("%d reduces failed, want all 4", res.Stats.FailedReduces)
	}
	if want := int(p.Graph.SIDRConnections()); lost != want {
		t.Fatalf("loop re-executed %d maps, want Σ|I_ℓ| = %d", lost, want)
	}
	if !reflect.DeepEqual(commits, []int{1, 1, 1, 1}) {
		t.Fatalf("commits per keyblock = %v, want one each", commits)
	}
	if n := len(res.Trace.SeriesOf(trace.Reduce).Times); n != 4 {
		t.Fatalf("%d reduce completions in the trace", n)
	}
	// Every fetch happened twice, and the loop counted both.
	if res.Stats.Connections != 2*p.Graph.SIDRConnections() {
		t.Fatalf("Connections = %d", res.Stats.Connections)
	}

	if res, lost, _ := strategy(false); lost != 0 || res.Stats.FailedReduces != 4 {
		t.Fatalf("persist strategy: %d maps recomputed, %d failures", lost, res.Stats.FailedReduces)
	}

	// Timing, on one keyblock so the trace reads unambiguously: all 32 Maps
	// finish by 160 s, the Reduce task's first attempt (1000/32 bytes of
	// tail at 1 MB/s + 5 s) fails, and only then do the 32 re-executions
	// start: the earliest of them ends a Map later.
	p = plan(t, core.EngineSIDR, 128, 1)
	job := workload(p)
	job.Failure = &FailureModel{Prob: 1, Recompute: true}
	maps := run(t, cfg, p, job).Trace.SeriesOf(trace.Map).Times
	if len(maps) != 64 {
		t.Fatalf("%d map completions, want 32 + 32", len(maps))
	}
	failure := 160 + float64(1000/32)/1e6 + 5
	if maps[31] != 160 || maps[32] != failure+20 {
		t.Fatalf("last first execution ends %v, first re-execution ends %v; failure at %v", maps[31], maps[32], failure)
	}
}

func TestRecomputeScheduleRespectsTheAttemptBudget(t *testing.T) {
	// Two 512-point splits feeding eight keyblocks each: with every Reduce
	// task failing, a split would be re-executed eight times. The loop
	// gives up at MaxTaskAttempts instead.
	q := plan(t, core.EngineSIDR, 128, 16).Query
	wide, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: 16, SplitPoints: 512})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wide.Graph.SplitToKB[0]); n != 8 {
		t.Fatalf("fixture: split 0 feeds %d keyblocks, want 8", n)
	}
	job := workload(wide)
	job.Failure = &FailureModel{Prob: 1, Recompute: true}
	if _, err := Run(tinyConfig(), wide.JobConfig(nil, nil), job); !errors.Is(err, mapreduce.ErrRetryExhausted) {
		t.Fatalf("eight re-executions of one split: %v, want ErrRetryExhausted", err)
	}
}
