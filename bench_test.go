package sidr

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation (§4), plus ablation benchmarks for the design
// choices called out in DESIGN.md. Figure benchmarks drive the
// paper-scale simulation (the job loop in virtual time); Table 2 and the §4.5 micro
// benchmark do real work (file IO, partitioning). Run with:
//
//	go test -bench=. -benchmem
//
// and see cmd/sidrbench for the human-readable rows each experiment
// regenerates.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/depgraph"
	"sidr/internal/experiments"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/partition"
	"sidr/internal/skew"
)

// BenchmarkFigure9 regenerates Figure 9: Query 1 under Hadoop, SciHadoop
// and SIDR at 22 Reduce tasks on the simulated 24-node testbed.
func BenchmarkFigure9(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cr := range rs {
				b.Log(cr.Format())
			}
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: the SIDR reduce-count sweep.
func BenchmarkFigure10(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cr := range rs {
				b.Log(cr.Format())
			}
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11: the Query 2 filter sweep.
func BenchmarkFigure11(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, cr := range rs {
				b.Log(cr.Format())
			}
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12: completion-time variance at 22
// vs 88 Reduce tasks over 4 seeded runs.
func BenchmarkFigure12(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Log(r.Format())
			}
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13: the intermediate-key-skew
// pathology, stock modulo vs partition+.
func BenchmarkFigure13(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gain := (rs[0].Makespan - rs[1].Makespan) / rs[0].Makespan * 100
			b.Logf("%s | %s | SIDR %.0f%% faster", rs[0].Format(), rs[1].Format(), gain)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 with real file IO: per-Reduce
// output write cost under the sentinel strategy as the total output
// scales, against SIDR's constant dense write.
func BenchmarkTable2(b *testing.B) {
	for _, reduces := range []int{20, 40, 80} {
		b.Run(fmt.Sprintf("sentinel-%d", reduces), func(b *testing.B) {
			cfg := experiments.DefaultTable2Config(b.TempDir())
			cfg.PointsPerTask, cfg.ReduceCounts, cfg.Runs = 1<<14, []int{reduces}, 1
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Table2(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dense", func(b *testing.B) {
		dir := b.TempDir()
		kb := coords.MustSlab(coords.NewCoord(0), coords.NewShape(1<<14))
		vals := make([]float64, kb.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path := fmt.Sprintf("%s/d-%d.ncf", dir, i)
			if _, err := ncfile.WriteDense(path, "out", kb, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairs", func(b *testing.B) {
		dir := b.TempDir()
		n := 1 << 14
		keys := make([]coords.Coord, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = coords.NewCoord(int64(i) * 20)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path := fmt.Sprintf("%s/p-%d.ncfp", dir, i)
			if _, err := ncfile.WritePairs(path, 1, keys, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3 regenerates Table 3: shuffle-connection scaling
// computed from real paper-scale dependency graphs.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Log(r.Format())
			}
		}
	}
}

// BenchmarkPartitionDefault measures Hadoop's modulo partitioner on the
// §4.5 workload shape (per-pair cost; the paper partitioned 6.48M pairs
// in ~200 ms).
func BenchmarkPartitionDefault(b *testing.B) {
	benchPartition(b, false)
}

// BenchmarkPartitionPlus measures partition+ on the same workload (the
// paper saw 223 ms for 6.48M pairs — a negligible ~10% penalty).
func BenchmarkPartitionPlus(b *testing.B) {
	benchPartition(b, true)
}

func benchPartition(b *testing.B, plus bool) {
	space := coords.Slab{Corner: coords.NewCoord(0, 0), Shape: coords.NewShape(6480, 1000)}
	var p partition.Partitioner
	var err error
	if plus {
		p, err = partition.NewPartitionPlus(space, 22, 0, nil)
	} else {
		p, err = partition.NewModulo(22, partition.TileIndexEncoding{Space: space})
	}
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]coords.Coord, 10000)
	for i := range keys {
		kp, err := space.Delinearize(int64(i) * 647)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = kp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLocal measures real end-to-end query execution through the
// in-process engine for each engine mode (laptop-scale Query 1
// analogue).
func BenchmarkRunLocal(b *testing.B) {
	gen := datagen.Windspeed(1)
	ds, err := Synthetic([]int64{24, 36, 36, 10}, func(k []int64) float64 {
		return gen(coords.Coord(k))
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	q, err := ParseQuery("median windspeed[0,0,0,0 : 24,36,36,10] es {2,36,36,10}")
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []Engine{Hadoop, SciHadoop, SIDR} {
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, q, RunOptions{Engine: engine, Reducers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationDependencyStoreVsRecompute compares precomputing I_ℓ
// at plan time (store) against each Reduce task re-deriving its source
// range on demand (re-compute) — the paper's §3.2.1 trade-off.
func BenchmarkAblationDependencyStoreVsRecompute(b *testing.B) {
	q := experiments.Query1()
	b.Run("store", func(b *testing.B) {
		// PaperPlan builds each plan once per process, so the derivation
		// is timed on its own: I_ℓ for every keyblock from the plan's
		// splits and partitioner.
		p, err := experiments.PaperPlan(q, core.EngineSIDR, 22)
		if err != nil {
			b.Fatal(err)
		}
		slabs := mapreduce.Slabs(p.Splits)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := depgraph.Build(q, slabs, p.Part)
			if err != nil {
				b.Fatal(err)
			}
			_ = g.SIDRConnections()
		}
	})
	b.Run("recompute", func(b *testing.B) {
		p, err := experiments.PaperPlan(q, core.EngineSIDR, 22)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each of the 22 Reduce tasks derives its input range from
			// its keyblock alone.
			for l := 0; l < 22; l++ {
				slab, ok := p.KeyblockSlab(l)
				if !ok {
					b.Fatal("keyblock not rectangular")
				}
				if _, err := sourceRange(q.Extraction, slab); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationCombiner compares Map-side combining on and off for a
// filter query (uncombined runs ship every sample of a key, combined runs
// only the predicate's survivors).
func BenchmarkAblationCombiner(b *testing.B) {
	gen := datagen.Gaussian(5, 0, 1)
	q, err := ParseQuery("filter_gt g[0,0 : 128,16] es {4,4} param 2")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := Synthetic([]int64{128, 16}, func(k []int64) float64 { return gen(coords.Coord(k)) })
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, combine bool) {
		plan, err := core.NewPlan(q.q, core.EngineSIDR, core.Options{Reducers: 4, SplitPoints: 128})
		if err != nil {
			b.Fatal(err)
		}
		in, err := plan.TaskInput(ds.Reader(context.Background()), nil)
		if err != nil {
			b.Fatal(err)
		}
		in.Combine = combine
		for i := 0; i < b.N; i++ {
			_, err := plan.RunLocal(nil, func(cfg *mapreduce.Config) {
				cfg.Runner = localRunner{in, plan.Splits}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("combine", func(b *testing.B) { run(b, true) })
	b.Run("no-combine", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationFailureRecovery compares the two recoveries from a
// failed Reduce fetch (§6 future work): refetching intermediate data
// that stayed put vs re-executing the task's Map dependencies through
// the job loop's re-arm.
func BenchmarkAblationFailureRecovery(b *testing.B) {
	gen := datagen.Windspeed(9)
	q, err := ParseQuery("median w[0,0 : 128,16] es {4,4}")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := Synthetic([]int64{128, 16}, func(k []int64) float64 { return gen(coords.Coord(k)) })
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, recompute bool) {
		for i := 0; i < b.N; i++ {
			plan, err := core.NewPlan(q.q, core.EngineSIDR, core.Options{Reducers: 4, SplitPoints: 128})
			if err != nil {
				b.Fatal(err)
			}
			in, err := plan.TaskInput(ds.Reader(context.Background()), nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := plan.RunLocal(ds.Reader(context.Background()), func(cfg *mapreduce.Config) {
				cfg.Runner = &failOnceRunner{localRunner: localRunner{in, plan.Splits},
					keyblock: 1, deps: plan.Graph.KBToSplits[1], recompute: recompute}
			})
			if err != nil {
				b.Fatal(err)
			}
			if want := int64(len(plan.Graph.KBToSplits[1])); recompute != (res.Counters.RecomputedMaps == want) {
				b.Fatalf("recompute=%v re-executed %d maps, |I_1| = %d", recompute, res.Counters.RecomputedMaps, want)
			}
		}
	}
	b.Run("refetch", func(b *testing.B) { run(b, false) })
	b.Run("recompute", func(b *testing.B) { run(b, true) })
}

// failOnceRunner fails one keyblock's first fetch. It recovers either
// itself, by fetching again from the same references, or by reporting
// the whole dependency set (deps) lost, which makes the job loop
// re-execute it.
type failOnceRunner struct {
	localRunner
	keyblock  int
	deps      []int
	recompute bool
	failed    atomic.Bool
}

func (r *failOnceRunner) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	if l == r.keyblock && r.failed.CompareAndSwap(false, true) {
		if r.recompute {
			return nil, 0, r.deps, fmt.Errorf("keyblock %d: injected loss of %v", l, r.deps)
		}
		if _, _, _, err := r.localRunner.Fetch(ctx, l, refs); err != nil { // the fetch whose result is thrown away
			return nil, 0, nil, err
		}
	}
	return r.localRunner.Fetch(ctx, l, refs)
}

// BenchmarkAblationSkewBound sweeps partition+'s permissible-skew bound
// (the Figure 7 tile size): finer tiles balance keyblocks more exactly
// but fragment them, which widens dependency sets and shuffle fan-in —
// the paper's footnote 1 trade-off ("accepting a small amount of skew
// ... can result in more efficient communications and reduced data
// dependencies").
func BenchmarkAblationSkewBound(b *testing.B) {
	q := experiments.Query1()
	space, err := q.IntermediateSpace()
	if err != nil {
		b.Fatal(err)
	}
	for _, bound := range []int64{1000, 10_000, 65_536, 500_000} {
		b.Run(fmt.Sprintf("maxskew-%d", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pp, err := partition.NewPartitionPlus(space, 22, bound, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					sizes := make([]int64, len(pp.Blocks))
					for j, kb := range pp.Blocks {
						sizes[j] = kb.Size()
					}
					b.Logf("tile=%v keyblock keys max/mean=%.3f", pp.TileShape, skew.Summarize(sizes).MaxOverMean)
				}
			}
		})
	}
}

// BenchmarkFailureStudy runs the §6 recovery study: persist-and-refetch
// vs no-persist-and-recompute across failure probabilities at paper
// scale.
func BenchmarkFailureStudy(b *testing.B) {
	cfg := experiments.TestbedConfig(1)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FailureStudy(cfg, 176, []float64{0, 0.05, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Log(r.Format())
			}
		}
	}
}

// BenchmarkAblationSpeculation measures Hadoop-style speculative
// execution against an injected straggler population at paper scale —
// the long-tail mitigation that interacts with Figure 12's variance.
func BenchmarkAblationSpeculation(b *testing.B) {
	q := experiments.Query1()
	p, err := experiments.PaperPlan(q, core.EngineSIDR, 88)
	if err != nil {
		b.Fatal(err)
	}
	w, err := experiments.PaperWorkload(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range []bool{false, true} {
		name := "no-speculation"
		if spec {
			name = "speculation"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.TestbedConfig(1)
			cfg.StragglerProb = 0.02
			cfg.StragglerFactor = 6
			cfg.Speculation = spec
			for i := 0; i < b.N; i++ {
				res, err := experiments.Simulate(p, cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("makespan=%.1fs stragglers=%d specWins=%d",
						res.Stats.Makespan, res.Stats.Stragglers, res.Stats.SpeculativeWins)
				}
			}
		})
	}
}

// sourceRange is the input slab whose points map to the intermediate keys
// of kp: from its first tile's corner to its last tile's end.
func sourceRange(e coords.Extraction, kp coords.Slab) (coords.Slab, error) {
	st := e.EffectiveStride()
	if kp.Rank() != len(st) {
		return coords.Slab{}, fmt.Errorf("rank %d, extraction rank %d", kp.Rank(), len(st))
	}
	corner := make(coords.Coord, kp.Rank())
	shape := make(coords.Shape, kp.Rank())
	for i := range corner {
		corner[i] = kp.Corner[i] * st[i]
		shape[i] = (kp.Corner[i]+kp.Shape[i]-1)*st[i] + e.Shape[i] - corner[i]
	}
	return coords.Slab{Corner: corner, Shape: shape}, nil
}

// localRunner runs Map tasks in process through mapreduce.ExecMap and
// keeps their outputs in memory, as a job without a Runner does, for a
// test's runner to wrap.
type localRunner struct {
	in     mapreduce.MapInput
	splits []mapreduce.InputSplit
}

func (r localRunner) RunMap(ctx context.Context, i int) (mapreduce.MapResult, error) {
	in := r.in
	in.Ctx = ctx
	outs, records, err := mapreduce.ExecMap(in, r.splits[i])
	return mapreduce.MapResult{Ref: outs, Records: records}, err
}

func (localRunner) Fetch(_ context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	var streams [][]kv.Pair
	var tally int64
	for _, ref := range refs {
		o := ref.([]mapreduce.MapOut)[l]
		streams = append(streams, o.Pairs)
		tally += o.SourceCount
	}
	return streams, tally, nil, nil
}
