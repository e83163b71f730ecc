package cluster

import (
	"reflect"
	"testing"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/mapreduce"
	"sidr/internal/partition"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// Temperature at testSeed over 30 days stays below ~4.5 early on and
// only the last days' rows can exceed 5, so this threshold keeps a
// minority of leading-dimension splits.
const pruneQueryText = "filter_gt temp[0,0,0 : 30,24,24] es {1,4,4} param 5"

// TestClusterPrunedMatchesUnpruned runs the same selective filter job
// with and without the JobPlan.Pruned kept-split list: the pruned job
// must dispatch exactly the kept Map tasks and produce byte-identical
// output to both the unpruned clustered run and the in-process engine.
func TestClusterPrunedMatchesUnpruned(t *testing.T) {
	gen := datagen.Temperature(testSeed)
	shape := coords.NewShape(testShape...)
	vi, err := sidx.BuildVar("*", shape, &mapreduce.FuncReader{Fn: gen}, sidx.BuildOptions{Blocks: 15})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(pruneQueryText)
	if err != nil {
		t.Fatal(err)
	}
	jp := testJobPlan()
	jp.Query = pruneQueryText
	indexed, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: jp.Reducers, SplitPoints: jp.SplitPoints, Index: vi})
	if err != nil {
		t.Fatal(err)
	}
	keep, total, pruned := indexed.KeptSplits, len(indexed.Splits)+indexed.PrunedSplits, indexed.KeptSplits != nil
	if !pruned || len(keep) == 0 || len(keep) == total {
		t.Fatalf("prune ineffective: kept %d of %d (pruned=%v)", len(keep), total, pruned)
	}

	c, _ := startCluster(t, 3, CoordinatorConfig{})
	unpruned, err := runClusterJob(t, c, func(spec *JobSpec) { spec.Plan = jp })
	if err != nil {
		t.Fatalf("unpruned cluster run: %v", err)
	}
	jpPruned := jp
	jpPruned.Pruned = keep
	prunedRes, err := runClusterJob(t, c, func(spec *JobSpec) { spec.Plan = jpPruned })
	if err != nil {
		t.Fatalf("pruned cluster run: %v", err)
	}

	if got, want := prunedRes.Counters.MapsDispatched, int64(len(keep)); got != want {
		t.Fatalf("pruned job dispatched %d Map tasks, want %d", got, want)
	}
	if unpruned.Counters.MapsDispatched != int64(total) {
		t.Fatalf("unpruned job dispatched %d Map tasks, want %d", unpruned.Counters.MapsDispatched, total)
	}

	uKeys, uVals := flatten(unpruned)
	pKeys, pVals := flatten(prunedRes)
	if !reflect.DeepEqual(uKeys, pKeys) || !reflect.DeepEqual(uVals, pVals) {
		t.Fatalf("pruned cluster output diverges: %d rows vs %d rows", len(pKeys), len(uKeys))
	}

	// Triple agreement: the in-process engine, fed the same plan scalars,
	// must match too.
	ds, err := sidr.Synthetic(testShape, func(k []int64) float64 { return gen(coords.Coord(k)) })
	if err != nil {
		t.Fatal(err)
	}
	fq, err := sidr.ParseQuery(pruneQueryText)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sidr.Run(ds, fq, sidr.RunOptions{Engine: sidr.SIDR, Reducers: jp.Reducers, SplitPoints: jp.SplitPoints})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local.Keys, pKeys) || !reflect.DeepEqual(local.Values, pVals) {
		t.Fatalf("pruned cluster output diverges from in-process engine: %d rows vs %d rows", len(pKeys), len(local.Keys))
	}
}

// TestFullyPrunedClusterJob: an empty (non-nil) kept list resolves
// without dispatching any Map task and yields an empty result.
func TestFullyPrunedClusterJob(t *testing.T) {
	c, _ := startCluster(t, 2, CoordinatorConfig{})
	jp := testJobPlan()
	jp.Query = pruneQueryText
	jp.Pruned = []int{}
	res, err := runClusterJob(t, c, func(spec *JobSpec) { spec.Plan = jp })
	if err != nil {
		t.Fatalf("fully pruned run: %v", err)
	}
	if res.Counters.MapsDispatched != 0 {
		t.Fatalf("fully pruned job dispatched %d Map tasks", res.Counters.MapsDispatched)
	}
	keys, _ := flatten(res)
	if len(keys) != 0 {
		t.Fatalf("fully pruned job produced %d rows", len(keys))
	}
}

// TestWorkerPlanMatchesIndexedPlan: a worker rebuilds a pruned plan from
// planTuple's kept list alone, with no index, and must get the indexed
// plan's partition+ layout — the live rows come from the kept splits on
// both sides, so no mask travels on the wire.
func TestWorkerPlanMatchesIndexedPlan(t *testing.T) {
	gen := datagen.Temperature(testSeed)
	shape := coords.NewShape(testShape...)
	vi, err := sidx.BuildVar("*", shape, &mapreduce.FuncReader{Fn: gen}, sidx.BuildOptions{Blocks: 15})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(pruneQueryText)
	if err != nil {
		t.Fatal(err)
	}
	jp := testJobPlan()
	indexed, err := core.NewPlan(q, core.EngineSIDR, core.Options{Reducers: jp.Reducers, SplitPoints: jp.SplitPoints, Index: vi})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := partition.NewPartitionPlus(indexed.Space, jp.Reducers, jp.MaxSkew, nil)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.PrunedSplits == 0 || reflect.DeepEqual(indexed.Keyblocks, uniform.Blocks) {
		t.Fatalf("pruned %d splits and kept the uniform layout: nothing to agree on", indexed.PrunedSplits)
	}
	worker, err := planTuple(indexed).newPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(worker.Keyblocks) != len(indexed.Keyblocks) {
		t.Fatalf("worker plan has %d keyblocks, coordinator %d", len(worker.Keyblocks), len(indexed.Keyblocks))
	}
	for l, kb := range indexed.Keyblocks {
		if w := worker.Keyblocks[l]; w.Lo != kb.Lo || w.Hi != kb.Hi {
			t.Fatalf("keyblock %d: worker [%d,%d), coordinator [%d,%d)", l, w.Lo, w.Hi, kb.Lo, kb.Hi)
		}
	}
	if !reflect.DeepEqual(worker.Part, indexed.Part) {
		t.Fatalf("worker partitioner %+v, coordinator %+v", worker.Part, indexed.Part)
	}
}
