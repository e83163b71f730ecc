package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/partition"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

func mustParse(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewPlanValidation(t *testing.T) {
	q := mustParse(t, "avg t[0,0 : 16,4] es {4,4}")
	if _, err := NewPlan(nil, EngineSIDR, Options{Reducers: 2}); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := NewPlan(q, EngineSIDR, Options{}); err == nil {
		t.Fatal("zero reducers accepted")
	}
	if _, err := NewPlan(q, Engine(99), Options{Reducers: 2}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := NewPlan(q, EngineSIDR, Options{Reducers: 2, Priority: []int{0}}); err == nil {
		t.Fatal("short priority accepted")
	}
}

func TestPlanPartitionerPerEngine(t *testing.T) {
	q := mustParse(t, "avg t[0,0 : 16,4] es {4,4}")
	sidr, err := NewPlan(q, EngineSIDR, Options{Reducers: 2, SplitPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	plus, err := partition.NewPartitionPlus(coords.MustSlab(coords.NewCoord(0), coords.NewShape(4)), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	modulo, err := partition.NewModulo(2, partition.TileIndexEncoding{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.TypeOf(sidr.Part) != reflect.TypeOf(plus) {
		t.Fatalf("SIDR partitioner = %T", sidr.Part)
	}
	if sidr.Keyblocks == nil {
		t.Fatal("SIDR plan missing keyblocks")
	}
	for _, e := range []Engine{EngineHadoop, EngineSciHadoop} {
		p, err := NewPlan(q, e, Options{Reducers: 2, SplitPoints: 16})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(p.Part) != reflect.TypeOf(modulo) {
			t.Fatalf("%v partitioner = %T", e, p.Part)
		}
		if p.Keyblocks != nil {
			t.Fatalf("%v plan has keyblocks", e)
		}
	}
}

func TestEngineStringsAndFactors(t *testing.T) {
	if EngineHadoop.String() != "Hadoop" || EngineSciHadoop.String() != "SciHadoop" || EngineSIDR.String() != "SIDR" {
		t.Fatal("engine names changed")
	}
	if EngineHadoop.MapCostFactor() <= 1 {
		t.Fatal("Hadoop map cost factor must exceed SciHadoop's")
	}
	if EngineSIDR.MapCostFactor() != 1 || EngineSciHadoop.MapCostFactor() != 1 {
		t.Fatal("SciHadoop/SIDR factors changed")
	}
}

func TestKeyblockSlab(t *testing.T) {
	q := mustParse(t, "avg t[0,0 : 16,4] es {4,4}")
	p, err := NewPlan(q, EngineSIDR, Options{Reducers: 2, SplitPoints: 16, MaxSkew: 2})
	if err != nil {
		t.Fatal(err)
	}
	slab, ok := p.KeyblockSlab(0)
	if !ok {
		t.Fatal("keyblock 0 not rectangular")
	}
	if slab.Size() != 2 {
		t.Fatalf("keyblock 0 slab = %v", slab)
	}
	if _, ok := p.KeyblockSlab(99); ok {
		t.Fatal("out-of-range keyblock accepted")
	}
	h, _ := NewPlan(q, EngineHadoop, Options{Reducers: 2, SplitPoints: 16})
	if _, ok := h.KeyblockSlab(0); ok {
		t.Fatal("modulo plan returned a keyblock slab")
	}
}

func TestRunLocalAllEnginesAgree(t *testing.T) {
	q := mustParse(t, "median w[0,0 : 24,8] es {4,4}")
	gen := datagen.Windspeed(11)
	reader := &mapreduce.FuncReader{Fn: gen}
	var outputs []map[string][]float64
	for _, e := range []Engine{EngineHadoop, EngineSciHadoop, EngineSIDR} {
		p, err := NewPlan(q, e, Options{Reducers: 3, SplitPoints: 40})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunLocal(reader, nil)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		m := map[string][]float64{}
		for _, out := range res.Outputs {
			for i, k := range out.Keys {
				m[k.String()] = out.Values[i]
			}
		}
		outputs = append(outputs, m)
	}
	if len(outputs[0]) == 0 {
		t.Fatal("no outputs")
	}
	for k, v := range outputs[0] {
		for e := 1; e < 3; e++ {
			got, ok := outputs[e][k]
			if !ok || len(got) != len(v) {
				t.Fatalf("engines disagree on key %s", k)
			}
			for i := range v {
				if got[i] != v[i] {
					t.Fatalf("engines disagree on key %s: %v vs %v", k, got[i], v[i])
				}
			}
		}
	}
}

// underReport is a runner whose Fetch reports keyblock 0's annotation
// tally one source pair short, as if a Map output had lost a pair.
type underReport struct{ localRunner }

func (r underReport) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	streams, tally, lost, err := r.localRunner.Fetch(ctx, l, refs)
	if l == 0 {
		tally--
	}
	return streams, tally, lost, err
}

// TestBarrierEnginesCheckTheTally: the §3.2.1 kv-count gate follows the
// plan's graph, not the engine. An in-process Hadoop or SciHadoop run —
// global barrier, no dependency counters — whose keyblock 0 comes up one
// pair short fails with ErrCountMismatch instead of committing a wrong
// answer. Mutation check: skipping the gate when Barrier is not
// DependencyBarrier fails this test.
func TestBarrierEnginesCheckTheTally(t *testing.T) {
	q := mustParse(t, "avg w[0,0 : 24,8] es {4,4}")
	reader := &mapreduce.FuncReader{Fn: datagen.Windspeed(11)}
	for _, e := range []Engine{EngineHadoop, EngineSciHadoop} {
		p, err := NewPlan(q, e, Options{Reducers: 3, SplitPoints: 40})
		if err != nil {
			t.Fatal(err)
		}
		in, err := p.TaskInput(reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.RunLocal(reader, func(cfg *mapreduce.Config) {
			cfg.Runner = underReport{localRunner{in, p.Splits}}
		})
		if !errors.Is(err, mapreduce.ErrCountMismatch) {
			t.Fatalf("%v: err = %v, want ErrCountMismatch", e, err)
		}
	}
}

func TestRunLocalSIDRPriority(t *testing.T) {
	q := mustParse(t, "avg w[0,0 : 16,4] es {4,4}")
	p, err := NewPlan(q, EngineSIDR, Options{Reducers: 4, SplitPoints: 16, MaxSkew: 1, Priority: []int{3, 2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var mapStarts []int
	res, err := p.RunLocal(&mapreduce.FuncReader{Fn: datagen.Windspeed(1)}, func(cfg *mapreduce.Config) {
		cfg.Workers = 1
		cfg.OnEvent = func(e mapreduce.Event) {
			if e.Kind == mapreduce.MapStart {
				mapStarts = append(mapStarts, e.Detail)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
	// Priority {3,2,1,0} with aligned splits runs maps in reverse order.
	if len(mapStarts) == 0 || mapStarts[0] != 3 {
		t.Fatalf("map starts = %v, want prioritised split 3 first", mapStarts)
	}
}

func TestSkewEncodingOption(t *testing.T) {
	// Supplying the corner-in-K encoding reproduces §4.3: with an even
	// extraction stride and even reducer count, half the keyblocks
	// receive nothing.
	q := mustParse(t, "avg w[0,0 : 32,8] es {2,2}")
	p, err := NewPlan(q, EngineSciHadoop, Options{
		Reducers:    2,
		SplitPoints: 32,
		KeyEncoding: partition.CornerInKEncoding{
			InputSpace: coords.NewShape(32, 8),
			Extraction: q.Extraction,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph.ExpectedCount[1] != 0 {
		t.Fatalf("expected starved keyblock, got counts %v", p.Graph.ExpectedCount)
	}
	if p.Graph.ExpectedCount[0] != q.Input.Size() {
		t.Fatalf("keyblock 0 count = %d", p.Graph.ExpectedCount[0])
	}
}

// TestAssembleAllocationsDoNotGrowWithRows: the assembled keys share one
// backing array, so Assemble's allocation count stays a handful at any
// row count (the row buffer, the sort's closure and swapper, the two
// row-header slices, the arena), and the keys are clipped copies.
func TestAssembleAllocationsDoNotGrowWithRows(t *testing.T) {
	p, err := NewPlan(mustParse(t, "avg w[0,0 : 24,8] es {4,4}"), EngineSIDR, Options{Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for _, rows := range []int{16, 16384} {
		out := mapreduce.ReduceOutput{Keys: make([]coords.Coord, rows), Values: make([][]float64, rows)}
		for i := range out.Keys {
			out.Keys[i] = coords.Coord{int64(rows - i), int64(i)}
		}
		var keys [][]int64
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if keys, _, err = p.Assemble([]mapreduce.ReduceOutput{out}); err != nil {
				t.Fatal(err)
			}
		}))
		_ = append(keys[0], -1)
		if len(keys) != rows || keys[0][0] != 1 || keys[1][0] != 2 || keys[rows-1][0] != int64(rows) {
			t.Fatalf("%d rows: assembled keys not sorted copies: %v … %v", rows, keys[:2], keys[rows-1])
		}
		out.Keys[rows-1][0] = -7
		if keys[0][0] != 1 {
			t.Fatal("assembled keys alias the Reduce output's")
		}
	}
	if allocs[0] > 8 || allocs[1] > 8 {
		t.Fatalf("Assemble allocations %v for 16 and 16384 rows; want ≤ 8 at both", allocs)
	}
}

// bandPlan is prune_filter's plan at a small size: a filter over a file
// whose matches live in one band of 1/16 of the rows, indexed per split,
// so pruning keeps 32 of 512 splits for 16 reducers.
func bandPlan(t *testing.T) (*Plan, coords.RecordReader) {
	t.Helper()
	shape := coords.NewShape(2048, 4, 4)
	base := datagen.EvenKeyed(3)
	reader := &mapreduce.FuncReader{Fn: func(k coords.Coord) float64 {
		if k[0] >= 384 && k[0] < 512 {
			return 10 * base(k)
		}
		return base(k)
	}}
	vi, err := sidx.BuildVar("*", shape, reader, sidx.BuildOptions{Blocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, "filter_gt v[0,0,0 : 2048,4,4] es {4,2,2} param 900")
	p, err := NewPlan(q, EngineSIDR, Options{Reducers: 16, SplitPoints: shape.Size() / 512, Index: vi})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Splits) != 32 || p.PrunedSplits != 480 {
		t.Fatalf("kept %d splits, pruned %d; want 32 and 480", len(p.Splits), p.PrunedSplits)
	}
	return p, reader
}

// TestPrunedFilterCommitsEarly pins SIDR's early result on a pruned plan
// without a clock: partition+ tiles the band the kept splits reach, so
// the first keyblock with a value commits before half of the Map tasks
// have ended (map_frac_at_first < 0.5). One worker makes the order of
// Map ends and commits deterministic.
func TestPrunedFilterCommitsEarly(t *testing.T) {
	p, reader := bandPlan(t)
	res, err := p.RunLocal(reader, func(c *mapreduce.Config) { c.Workers = 1 })
	if err != nil {
		t.Fatal(err)
	}
	mapsEnded := 0
	for _, ev := range res.Events {
		switch {
		case ev.Kind == mapreduce.MapEnd:
			mapsEnded++
		case ev.Kind == mapreduce.ReduceEnd && len(res.Outputs[ev.Detail].Keys) > 0:
			if 2*mapsEnded >= len(p.Splits) {
				t.Fatalf("first keyblock with a value (%d) committed after %d of %d Map tasks", ev.Detail, mapsEnded, len(p.Splits))
			}
			return
		}
	}
	t.Fatal("no keyblock committed a value")
}

// TestUnprunedLayoutIsUniform: a plan that prunes nothing — no index, or
// an index that keeps every split — tiles all of K'^T exactly as
// partition+ always has, so workloads without a selective filter keep
// their keyblocks.
func TestUnprunedLayoutIsUniform(t *testing.T) {
	p, _ := bandPlan(t)
	uniform, err := partition.NewPartitionPlus(p.Space, p.Reducers, p.MaxSkew, nil)
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := NewPlan(p.Query, EngineSIDR, Options{Reducers: p.Reducers, SplitPoints: p.SplitPoints})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(unpruned.Splits))
	for i := range all {
		all[i] = i
	}
	keepAll, err := NewPlan(p.Query, EngineSIDR, Options{Reducers: p.Reducers, SplitPoints: p.SplitPoints, KeepSplits: all})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Plan{unpruned, keepAll} {
		if !reflect.DeepEqual(q.Keyblocks, uniform.Blocks) {
			t.Fatalf("unpruned keyblocks %v, want the uniform layout %v", q.Keyblocks, uniform.Blocks)
		}
	}
	if reflect.DeepEqual(p.Keyblocks, uniform.Blocks) {
		t.Fatal("pruned plan kept the uniform layout")
	}
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
