package mapreduce

import (
	"testing"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/partition"
)

func TestMoreReducersThanKeys(t *testing.T) {
	// 4 intermediate keys spread over 8 reducers: the extra Reduce tasks
	// commit empty outputs without wedging either barrier mode.
	q := mustParse(t, "avg t[0 : 16] es {4}")
	for _, sidr := range []bool{false, true} {
		cfg := buildJob(t, q, 8, sidr, true)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("sidr=%v: %v", sidr, err)
		}
		keys := 0
		for _, out := range res.Outputs {
			keys += len(out.Keys)
		}
		if keys != 4 {
			t.Fatalf("sidr=%v: %d keys", sidr, keys)
		}
	}
}

func TestSingleSplitSingleReducer(t *testing.T) {
	q := mustParse(t, "sum t[0,0 : 8,8] es {8,8}")
	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 1, true, true)
	if len(cfg.Splits) < 1 {
		t.Fatal("no splits")
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
}

func TestFilterWithNoSurvivors(t *testing.T) {
	// A filter nobody passes emits no keys at all — predicated operators
	// omit keys with no surviving samples (so index-pruned and unpruned
	// plans agree byte-for-byte) — yet the count barrier must still be
	// satisfied before the empty keyblocks commit.
	q := mustParse(t, "filter_gt t[0,0 : 16,4] es {4,4} param 1e18")
	cfg := buildJob(t, q, 2, true, true)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outputs {
		if len(out.Keys) != 0 {
			t.Fatalf("survivor-free filter emitted keys %v", out.Keys)
		}
	}
	if res.Counters.OutputValues != 0 {
		t.Fatalf("OutputValues = %d", res.Counters.OutputValues)
	}
}

func TestSplitsBeyondQueryInput(t *testing.T) {
	// Splits cover a dataset larger than the query input: out-of-query
	// splits are read as no-ops and the dependency barrier still clears.
	q := mustParse(t, "avg t[0,0 : 16,4] es {4,4}")
	ref := referenceResults(t, q, synthValue)
	dataset := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(64, 4))
	slabs, err := dataset.SplitDim(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	splits := make([]InputSplit, len(slabs))
	for i, s := range slabs {
		splits[i] = InputSplit{ID: i, Slab: s}
	}
	space, _ := q.IntermediateSpace()
	pp, err := partition.NewPartitionPlus(space, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(q, slabs, pp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Query:   q,
		Splits:  splits,
		Reader:  &FuncReader{Fn: synthValue},
		Part:    pp,
		Graph:   g,
		Barrier: DependencyBarrier,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
}

func TestShuffleBytesCounter(t *testing.T) {
	q := mustParse(t, "median t[0,0 : 28,10] es {7,5}")
	res, err := Run(buildJob(t, q, 2, true, true))
	if err != nil {
		t.Fatal(err)
	}
	// Median ships all samples: at least 8 bytes per source point plus
	// per-value headers.
	if res.Counters.ShuffleBytes < q.Input.Size()*8 {
		t.Fatalf("ShuffleBytes = %d, want >= %d", res.Counters.ShuffleBytes, q.Input.Size()*8)
	}
}

func TestStridedQueryEndToEnd(t *testing.T) {
	// Strided extraction through the whole engine, both barrier modes.
	q := mustParse(t, "max t[0 : 40] es {2} stride {5}")
	ref := referenceResults(t, q, synthValue)
	for _, sidr := range []bool{false, true} {
		res, err := Run(buildJob(t, q, 2, sidr, true))
		if err != nil {
			t.Fatalf("sidr=%v: %v", sidr, err)
		}
		checkAgainstReference(t, res, ref)
	}
}
