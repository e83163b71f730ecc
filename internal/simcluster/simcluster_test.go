package simcluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sidr/internal/core"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
	"sidr/internal/trace"
)

// tinyConfig is a fast, noise-free cluster for unit tests: 4 Map slots, 2
// Reduce slots, 10 s Maps (20 s when not node-local).
func tinyConfig() Config {
	return Config{
		Workers:          2,
		MapSlots:         2,
		ReduceSlots:      1,
		MapBase:          10,
		MapPerPoint:      0,
		LocalityPenalty:  2,
		ShuffleBandwidth: 1e6,
		ReduceBase:       5,
		ReducePerPair:    0,
		JitterFrac:       0,
		Seed:             1,
	}
}

// plan is a small real plan: rows/4 splits of 32 points, each one row of
// 4×4 tiles, and partition+ (or modulo) keyblocks over the rows/2 keys.
// With SIDR every keyblock depends on a contiguous run of splits/reducers
// splits and no split is shared.
func plan(t testing.TB, engine core.Engine, rows, reducers int) *core.Plan {
	t.Helper()
	q, err := query.Parse(fmt.Sprintf("avg w[0,0 : %d,8] es {4,4}", rows))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlan(q, engine, core.Options{Reducers: reducers, SplitPoints: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Splits) != rows/4 {
		t.Fatalf("plan has %d splits, want %d", len(p.Splits), rows/4)
	}
	return p
}

// workload charges every task of p the same: 100 points per split, 10
// pairs and 1000 shuffled bytes per keyblock.
func workload(p *core.Plan) Job {
	job := Job{MapCostFactor: 1}
	for range p.Splits {
		job.Splits = append(job.Splits, Split{Points: 100})
	}
	for l := 0; l < p.Part.NumKeyblocks(); l++ {
		job.Reduces = append(job.Reduces, Reduce{Pairs: 10, InBytes: 1000})
	}
	return job
}

func run(t testing.TB, cfg Config, p *core.Plan, job Job) *Result {
	t.Helper()
	res, err := Run(cfg, p.JobConfig(nil, nil), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateValidation(t *testing.T) {
	p := plan(t, core.EngineSIDR, 128, 4)
	if _, err := Run(Config{}, p.JobConfig(nil, nil), workload(p)); err == nil {
		t.Fatal("empty topology accepted")
	}
	short := workload(p)
	short.Splits = short.Splits[1:]
	if _, err := Run(tinyConfig(), p.JobConfig(nil, nil), short); err == nil {
		t.Fatal("workload with a split missing accepted")
	}
	short = workload(p)
	short.Reduces = short.Reduces[1:]
	if _, err := Run(tinyConfig(), p.JobConfig(nil, nil), short); err == nil {
		t.Fatal("workload with a keyblock missing accepted")
	}
	// The loop's own checks are the simulator's: task orders must permute.
	loop := p.JobConfig(nil, nil)
	loop.MapOrder = make([]int, len(p.Splits))
	if _, err := Run(tinyConfig(), loop, workload(p)); err == nil || !strings.Contains(err.Error(), "must permute") {
		t.Fatalf("repeated MapOrder entry: %v", err)
	}
	loop = p.JobConfig(nil, nil)
	loop.ReduceOrder = []int{0, 1, 2, 2}
	if _, err := Run(tinyConfig(), loop, workload(p)); err == nil || !strings.Contains(err.Error(), "must permute") {
		t.Fatalf("repeated ReduceOrder entry: %v", err)
	}
}

func TestGlobalBarrierReducesAfterAllMaps(t *testing.T) {
	p := plan(t, core.EngineSciHadoop, 128, 2)
	res := run(t, tinyConfig(), p, workload(p))
	// 32 maps on 4 slots at 20 s (no split is node-local): 8 waves. No
	// reduce may finish before then.
	if res.Stats.MapsDone != 160 {
		t.Fatalf("MapsDone = %v", res.Stats.MapsDone)
	}
	if res.Stats.FirstResult <= res.Stats.MapsDone {
		t.Fatalf("global barrier violated: first result %v before maps done %v", res.Stats.FirstResult, res.Stats.MapsDone)
	}
	if res.Stats.Connections != 32*2 {
		t.Fatalf("Connections = %d, want 64 (maps × reduces)", res.Stats.Connections)
	}
}

func TestDependencyBarrierProducesEarlyResults(t *testing.T) {
	p := plan(t, core.EngineSIDR, 128, 2)
	res := run(t, tinyConfig(), p, workload(p))
	// Keyblock 0 depends only on the first half of the splits: its result
	// must land before the last map finishes.
	if !(res.Stats.FirstResult < res.Stats.MapsDone) {
		t.Fatalf("no early result: first %v, maps done %v", res.Stats.FirstResult, res.Stats.MapsDone)
	}
	if res.Stats.Connections != 32 {
		t.Fatalf("Connections = %d, want 32 (Σ|I_ℓ|)", res.Stats.Connections)
	}
	maps, reduces := res.Trace.SeriesOf(trace.Map), res.Trace.SeriesOf(trace.Reduce)
	if len(maps.Times) != 32 || len(reduces.Times) != 2 {
		t.Fatalf("trace has %d map and %d reduce completions", len(maps.Times), len(reduces.Times))
	}
}

func TestSIDRBeatsGlobalBarrierMakespan(t *testing.T) {
	// Overlap pays off when Reduce tasks outnumber Reduce slots: under
	// the global barrier all four reduces queue for the two slots after
	// the last Map; under the dependency barrier the first wave runs
	// during the Map phase.
	cfg := tinyConfig()
	cfg.ReduceBase = 30 // substantial reduce work makes overlap matter
	ss := plan(t, core.EngineSIDR, 128, 4)
	sh := plan(t, core.EngineSciHadoop, 128, 4)
	sidr, global := run(t, cfg, ss, workload(ss)), run(t, cfg, sh, workload(sh))
	if !(sidr.Stats.Makespan < global.Stats.Makespan) {
		t.Fatalf("SIDR %v not faster than global %v", sidr.Stats.Makespan, global.Stats.Makespan)
	}
}

func TestLocalityReducesMapTime(t *testing.T) {
	cfg := tinyConfig()
	p := plan(t, core.EngineSciHadoop, 128, 1)
	placed := p.JobConfig(nil, nil)
	placed.Splits = append([]mapreduce.InputSplit(nil), p.Splits...)
	for i := range placed.Splits {
		placed.Splits[i].Hosts = []string{nodeName(i % cfg.Workers), "elsewhere"}
	}
	localRes, err := Run(cfg, placed, workload(p))
	if err != nil {
		t.Fatal(err)
	}
	remoteRes := run(t, cfg, p, workload(p))
	if !(localRes.Stats.MapsDone < remoteRes.Stats.MapsDone) {
		t.Fatalf("locality had no effect: %v vs %v", localRes.Stats.MapsDone, remoteRes.Stats.MapsDone)
	}
	// Each node holds half the splits and has half the slots, so every
	// task finishes first on a node that holds it.
	if localRes.Stats.LocalMaps != 32 || remoteRes.Stats.LocalMaps != 0 {
		t.Fatalf("LocalMaps = %d / %d", localRes.Stats.LocalMaps, remoteRes.Stats.LocalMaps)
	}
}

func TestMapCostFactorSlowsMaps(t *testing.T) {
	p := plan(t, core.EngineHadoop, 128, 2)
	base, slow := workload(p), workload(p)
	slow.MapCostFactor = 2.35
	r1, r2 := run(t, tinyConfig(), p, base), run(t, tinyConfig(), p, slow)
	if ratio := r2.Stats.MapsDone / r1.Stats.MapsDone; math.Abs(ratio-2.35) > 1e-9 {
		t.Fatalf("map cost factor ratio = %v", ratio)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.StragglerProb = 0.1
	p := plan(t, core.EngineSIDR, 256, 4)
	job := workload(p)
	job.Failure = &FailureModel{Prob: 0.5, Recompute: true}
	a, b := run(t, cfg, p, job), run(t, cfg, p, job)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 99
	if c := run(t, cfg, p, job); reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("a different seed replayed the same trace")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// A graph whose two directions disagree: keyblock 0 waits for split 0,
	// but split 0 does not know it. The loop's stall detection reports it.
	p := plan(t, core.EngineSIDR, 128, 2)
	loop := p.JobConfig(nil, nil)
	g := *p.Graph
	g.SplitToKB = append([][]int(nil), g.SplitToKB...)
	g.SplitToKB[0] = nil
	loop.Graph = &g
	_, err := Run(tinyConfig(), loop, workload(p))
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("stranded keyblock: %v", err)
	}
}

func TestMoreReducersTrackMapCurve(t *testing.T) {
	// Figure 10's shape: with the dependency barrier, more Reduce tasks
	// move the Reduce completion curve closer to the Map completion
	// curve (and shrink time-to-first-result).
	cfg := DefaultConfig()
	cfg.Workers = 4 // 16 Map slots for 96 splits: six waves
	cfg.JitterFrac = 0
	gap := func(r int) (first, makespan float64) {
		p := plan(t, core.EngineSIDR, 384, r)
		job := workload(p)
		for i := range job.Reduces {
			// Fixed total reduce work split across r tasks.
			job.Reduces[i].Pairs = int64(96000 / r)
			job.Reduces[i].InBytes = int64(9600000 / r)
		}
		res := run(t, cfg, p, job)
		return res.Stats.FirstResult, res.Stats.Makespan
	}
	f4, m4 := gap(4)
	f24, m24 := gap(24)
	if !(f24 < f4) {
		t.Fatalf("first result did not improve: %v -> %v", f4, f24)
	}
	if !(m24 <= m4) {
		t.Fatalf("makespan did not improve: %v -> %v", m4, m24)
	}
}

// offByOne perturbs the kv-count tally of every fetch.
type offByOne struct{ *runner }

func (r offByOne) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	streams, tally, lost, err := r.runner.Fetch(ctx, l, refs)
	return streams, tally + 1, lost, err
}

func TestCountGateIsOnInSimulation(t *testing.T) {
	p := plan(t, core.EngineSIDR, 128, 2)
	loop := p.JobConfig(nil, nil)
	r, err := newRunner(tinyConfig(), loop, workload(p))
	if err != nil {
		t.Fatal(err)
	}
	loop.Runner, loop.Workers = offByOne{r}, 1
	if _, err := mapreduce.Run(loop); !errors.Is(err, mapreduce.ErrCountMismatch) {
		t.Fatalf("perturbed tally: %v, want ErrCountMismatch", err)
	}
}

func TestNodes(t *testing.T) {
	ns := Nodes(3)
	if len(ns) != 3 || ns[0] != "node00" || ns[2] != "node02" {
		t.Fatalf("Nodes = %v", ns)
	}
}

// DefaultConfig returns the paper-testbed topology with a cost model
// calibrated so Query 1's curves land in the same regime as Figure 9
// (map phase ~1,100 s for SciHadoop-style execution at 22 reducers).
func DefaultConfig() Config {
	return Config{
		Workers:          24,
		MapSlots:         4,
		ReduceSlots:      3,
		MapBase:          2.0,
		MapPerPoint:      8.0e-7,
		LocalityPenalty:  1.3,
		JitterFrac:       0.08,
		ShuffleBandwidth: 80e6,
		ReduceBase:       1.0,
		ReducePerPair:    1.2e-6,
		Seed:             1,
	}
}
