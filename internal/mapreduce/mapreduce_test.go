package mapreduce

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/kv"
	"sidr/internal/ncfile"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// synthValue is a deterministic pseudo-random dataset defined over
// coordinates.
func synthValue(k coords.Coord) float64 {
	var h uint64 = 1469598103934665603
	for _, x := range k {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return float64(h%1000)/10 - 50
}

// referenceResults computes the expected output of a query sequentially:
// for each K' key, fold every in-tile input point and apply the operator.
func referenceResults(t *testing.T, q *query.Query, value func(coords.Coord) float64) map[string][]float64 {
	t.Helper()
	op, err := q.Op()
	if err != nil {
		t.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	isFilter := op.Kind() == ops.Filter
	out := make(map[string][]float64)
	space.Each(func(kp coords.Coord) bool {
		tile, err := q.Extraction.Tile(kp)
		if err != nil {
			t.Fatal(err)
		}
		live, ok := tile.Intersect(q.Input)
		if !ok {
			return true
		}
		var v kv.Value
		live.Each(func(k coords.Coord) bool {
			addPoint(&v, value(k), true)
			return true
		})
		vals := op.Apply(v, q.Params()...)
		if isFilter && len(vals) == 0 {
			return true // predicated operators omit survivor-free keys
		}
		out[kp.String()] = vals
		return true
	})
	return out
}

// checkAgainstReference verifies a job result against the sequential
// reference.
func checkAgainstReference(t *testing.T, res *Result, ref map[string][]float64) {
	t.Helper()
	got := make(map[string][]float64)
	for _, out := range res.Outputs {
		for i, k := range out.Keys {
			if _, dup := got[k.String()]; dup {
				t.Fatalf("key %v produced by two Reduce tasks", k)
			}
			got[k.String()] = out.Values[i]
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("produced %d keys, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing key %s", k)
		}
		if len(g) != len(want) {
			t.Fatalf("key %s: %d values, want %d", k, len(g), len(want))
		}
		for i := range want {
			if math.Abs(g[i]-want[i]) > 1e-9 {
				t.Fatalf("key %s value %d: got %v want %v", k, i, g[i], want[i])
			}
		}
	}
}

// buildJob assembles a config for a query over the synthetic dataset.
func buildJob(t *testing.T, q *query.Query, reducers int, sidr bool, combine bool) Config {
	t.Helper()
	splits, err := GenerateSplits(q.Input, q.Input.Size()/7+1, nil, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	var part partition.Partitioner
	if sidr {
		pp, err := partition.NewPartitionPlus(space, reducers, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		part = pp
	} else {
		m, err := partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
		if err != nil {
			t.Fatal(err)
		}
		part = m
	}
	g, err := depgraph.Build(q, Slabs(splits), part)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Query:  q,
		Splits: splits,
		Reader: &FuncReader{Fn: synthValue},
		Part:   part,
		Graph:  g,
	}
	if !combine {
		// A job's own task input always combines; an uncombined run hands
		// the loop a runner over an input that does not.
		op, err := q.Op()
		if err != nil {
			t.Fatal(err)
		}
		in := MapInput{Query: q, Op: op, Space: space, Part: part, Reader: cfg.Reader}
		cfg.Runner = localRunner{In: in, Splits: splits}
	}
	if sidr {
		cfg.Barrier = DependencyBarrier
	}
	return cfg
}

func mustParse(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConfigValidation(t *testing.T) {
	q := mustParse(t, "avg t[0 : 8] es {2}")
	if _, err := Run(Config{}); !errors.Is(err, errNoQuery) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(Config{Query: q}); !errors.Is(err, errNoReader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(Config{Query: q, Reader: &FuncReader{Fn: synthValue}}); !errors.Is(err, errNoPartitioner) {
		t.Fatalf("err = %v", err)
	}
	cfg := buildJob(t, q, 2, true, true)
	cfg.Graph = nil
	if _, err := Run(cfg); !errors.Is(err, errNeedsGraph) {
		t.Fatalf("err = %v", err)
	}
	cfg = buildJob(t, q, 2, true, true)
	cfg.MapOrder = []int{0}
	if _, err := Run(cfg); !errors.Is(err, errBadMapOrder) {
		t.Fatalf("err = %v", err)
	}
	cfg.MapOrder = []int{0, 0}
	if _, err := Run(cfg); !errors.Is(err, errBadMapOrder) {
		t.Fatalf("err = %v", err)
	}
}

func TestEnginesAgreeWithReference(t *testing.T) {
	queries := []string{
		"avg temp[0,0 : 28,10] es {7,5}",
		"median temp[0,0 : 28,10] es {7,5}",
		"sum temp[3,2 : 21,8] es {3,4}",
		"max temp[0,0 : 30,9] es {4,3}", // partial trailing tiles
		"stddev temp[0,0 : 16,16] es {2,2}",
		"filter_gt temp[0,0 : 20,20] es {4,4} param 30",
		"sort temp[0,0 : 12,6] es {3,3}",
		"avg temp[0 : 64] es {2} stride {4}",
	}
	for _, qs := range queries {
		for _, sidr := range []bool{false, true} {
			for _, combine := range []bool{false, true} {
				q := mustParse(t, qs)
				ref := referenceResults(t, q, synthValue)
				cfg := buildJob(t, q, 3, sidr, combine)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s sidr=%v combine=%v: %v", qs, sidr, combine, err)
				}
				checkAgainstReference(t, res, ref)
			}
		}
	}
}

func TestFileReaderEndToEnd(t *testing.T) {
	// Same query through a real ncfile container must match FuncReader.
	q := mustParse(t, "median temp[0,0 : 21,10] es {7,5}")
	path := filepath.Join(t.TempDir(), "data.ncf")
	h := &ncfile.Header{
		Dims: []ncfile.Dimension{{Name: "time", Length: 21}, {Name: "lat", Length: 10}},
		Vars: []ncfile.Variable{{Name: "temp", Type: ncfile.Float64, Dims: []string{"time", "lat"}}},
	}
	f, err := ncfile.CreateEmpty(path, h)
	if err != nil {
		t.Fatal(err)
	}
	full := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(21, 10))
	vals := make([]float64, full.Size())
	i := 0
	full.Each(func(k coords.Coord) bool {
		vals[i] = synthValue(k)
		i++
		return true
	})
	if err := f.WriteSlab("temp", full, vals); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 2, true, true)
	cfg.Reader = &FileReader{File: f, Var: "temp"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
}

func TestDependencyBarrierEnablesEarlyReduces(t *testing.T) {
	// Structural proof of early results (Figure 4b): the Map task for
	// the LAST split refuses to proceed until Reduce task 0 has
	// committed its output. Under the dependency barrier this completes
	// (keyblock 0 does not depend on the last split); under a global
	// barrier it would deadlock.
	q := mustParse(t, "avg temp[0,0 : 64,8] es {4,4}")
	cfg := buildJob(t, q, 4, true, true)
	ref := referenceResults(t, q, synthValue)
	lastSplit := cfg.Splits[len(cfg.Splits)-1].Slab
	for _, dep := range cfg.Graph.KBToSplits[0] {
		if dep == len(cfg.Splits)-1 {
			t.Fatal("test premise broken: keyblock 0 depends on the last split")
		}
	}
	reduce0Done := make(chan struct{})
	cfg.OnEvent = func(e Event) {
		if e.Kind == ReduceEnd && e.Detail == 0 {
			close(reduce0Done)
		}
	}
	inner := &FuncReader{Fn: synthValue}
	cfg.Reader = readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		if slab.Corner.Equal(lastSplit.Corner) {
			select {
			case <-reduce0Done:
			case <-time.After(30 * time.Second):
				return nil, errors.New("reduce 0 never finished early: dependency barrier broken")
			}
		}
		return inner.ReadSlabInto(slab, dst)
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
}

func TestGlobalBarrierBlocksAllReduces(t *testing.T) {
	// Under the global barrier no ReduceStart may precede the last
	// MapEnd (Figure 4a).
	q := mustParse(t, "avg temp[0,0 : 64,8] es {4,4}")
	cfg := buildJob(t, q, 4, false, true)
	cfg.Barrier = globalBarrier
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastMapEnd := -1
	for idx, e := range res.Events {
		if e.Kind == MapEnd {
			lastMapEnd = idx
		}
	}
	for idx, e := range res.Events {
		if e.Kind == ReduceStart && idx < lastMapEnd {
			t.Fatalf("ReduceStart (event %d) before last MapEnd (event %d) under global barrier", idx, lastMapEnd)
		}
	}
}

func TestShuffleConnectionCounts(t *testing.T) {
	// Table 3's effect at engine level: the global barrier contacts
	// M×R sources, the dependency barrier only Σ|I_ℓ|.
	q := mustParse(t, "avg temp[0,0 : 64,8] es {4,4}")
	sidrCfg := buildJob(t, q, 4, true, true)
	sidrRes, err := Run(sidrCfg)
	if err != nil {
		t.Fatal(err)
	}
	hCfg := buildJob(t, q, 4, false, true)
	hRes, err := Run(hCfg)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(len(hCfg.Splits))
	if hRes.Counters.Connections != m*4 {
		t.Fatalf("Hadoop connections = %d, want %d", hRes.Counters.Connections, m*4)
	}
	if sidrRes.Counters.Connections != sidrCfg.Graph.SIDRConnections() {
		t.Fatalf("SIDR connections = %d, want %d", sidrRes.Counters.Connections, sidrCfg.Graph.SIDRConnections())
	}
	if sidrRes.Counters.Connections >= hRes.Counters.Connections {
		t.Fatalf("SIDR connections %d not below Hadoop %d", sidrRes.Counters.Connections, hRes.Counters.Connections)
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	// A Map task ships one pair per key either way; what the combiner
	// decides is whether a filter's pairs carry every sample or only the
	// survivors of its predicate.
	q := mustParse(t, "filter_gt temp[0,0 : 28,10] es {7,5} param 30")
	with, err := Run(buildJob(t, q, 2, true, true))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(buildJob(t, q, 2, true, false))
	if err != nil {
		t.Fatal(err)
	}
	if with.Counters.MapPairsOut != without.Counters.MapPairsOut {
		t.Fatalf("combiner changed the pair count: %d vs %d", with.Counters.MapPairsOut, without.Counters.MapPairsOut)
	}
	if with.Counters.ShuffleBytes >= without.Counters.ShuffleBytes {
		t.Fatalf("pre-filter did not reduce shuffle bytes: %d vs %d", with.Counters.ShuffleBytes, without.Counters.ShuffleBytes)
	}
	if with.Counters.MapRecordsIn != without.Counters.MapRecordsIn {
		t.Fatalf("record counts differ: %d vs %d", with.Counters.MapRecordsIn, without.Counters.MapRecordsIn)
	}
}

func TestCountAnnotationDetectsLoss(t *testing.T) {
	// Corrupt the dependency graph's expectation to prove the annotation
	// barrier actually validates.
	q := mustParse(t, "avg temp[0,0 : 28,10] es {7,5}")
	cfg := buildJob(t, q, 2, true, true)
	cfg.Graph.ExpectedCount[0]++ // expectation now impossible to meet
	_, err := Run(cfg)
	if !errors.Is(err, ErrCountMismatch) {
		t.Fatalf("err = %v, want count mismatch", err)
	}
}

func TestMapOrderRespected(t *testing.T) {
	q := mustParse(t, "avg temp[0,0 : 28,10] es {7,5}")
	cfg := buildJob(t, q, 2, true, true)
	n := len(cfg.Splits)
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	cfg.MapOrder = order
	cfg.Workers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for _, e := range res.Events {
		if e.Kind == MapStart {
			starts = append(starts, e.Detail)
		}
	}
	for i := range starts {
		if starts[i] != order[i] {
			t.Fatalf("map order = %v, want %v", starts, order)
		}
	}
}

func TestReaderErrorPropagates(t *testing.T) {
	q := mustParse(t, "avg temp[0,0 : 28,10] es {7,5}")
	cfg := buildJob(t, q, 2, true, true)
	boom := errors.New("disk on fire")
	n := 0
	cfg.Reader = &FuncReader{Fn: func(k coords.Coord) float64 {
		n++
		return 0
	}}
	cfg.Reader = readerFunc(func(coords.Slab, []float64) ([]float64, error) {
		return nil, boom
	})
	if _, err := Run(cfg); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want propagated reader error", err)
	}
}

// readerFunc adapts a function to coords.RecordReader.
type readerFunc func(coords.Slab, []float64) ([]float64, error)

func (f readerFunc) ReadSlabInto(s coords.Slab, dst []float64) ([]float64, error) {
	return f(s, dst)
}

func TestGenerateSplits(t *testing.T) {
	input := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(100, 10))
	splits, err := GenerateSplits(input, 250, nil, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	// 250 points / 10 per row = 25 rows per split -> 4 splits.
	if len(splits) != 4 {
		t.Fatalf("%d splits", len(splits))
	}
	var total int64
	for i, s := range splits {
		if s.ID != i {
			t.Fatalf("split %d has ID %d", i, s.ID)
		}
		total += s.Slab.Size()
	}
	if total != input.Size() {
		t.Fatalf("splits cover %d points", total)
	}
	if _, err := GenerateSplits(input, 0, nil, "", 8); err == nil {
		t.Fatal("zero target accepted")
	}
	// Tiny targets clamp to one row.
	tiny, err := GenerateSplits(input, 1, nil, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiny) != 100 {
		t.Fatalf("%d splits for one-row target", len(tiny))
	}
}

func TestRandomizedEnginesAgree(t *testing.T) {
	// Randomised cross-check of Hadoop-mode and SIDR-mode execution.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		rows := int64(8 + r.Intn(40))
		cols := int64(4 + r.Intn(12))
		es0 := int64(1 + r.Intn(5))
		es1 := int64(1 + r.Intn(4))
		opNames := []string{"avg", "sum", "min", "max", "median", "count"}
		op := opNames[r.Intn(len(opNames))]
		q := &query.Query{
			Operator:   op,
			Variable:   "v",
			Input:      coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(rows, cols)),
			Extraction: mustExtraction(coords.NewShape(es0, es1), nil),
		}
		if err := q.Validate(nil); err != nil {
			t.Fatal(err)
		}
		reducers := 1 + r.Intn(5)
		ref := referenceResults(t, q, synthValue)
		for _, sidr := range []bool{false, true} {
			cfg := buildJob(t, q, reducers, sidr, r.Intn(2) == 0)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("trial %d sidr=%v: %v", trial, sidr, err)
			}
			checkAgainstReference(t, res, ref)
		}
	}
}

// TestExecReduceFilterOmitsEmptyKeys pins the rule that keeps index-pruned
// and unpruned plans byte-identical where the one apply loop lives: a key
// whose filter output is empty is omitted, while an aggregate emits a
// value for every merged key. Equal keys across streams merge first.
func TestExecReduceFilterOmitsEmptyKeys(t *testing.T) {
	pair := func(k int64, vs ...float64) kv.Pair {
		var v kv.Value
		for _, x := range vs {
			addPoint(&v, x, true)
		}
		return kv.Pair{Key: coords.NewCoord(k), Value: v}
	}
	// Key 0 has no survivor above 10, key 1 one per stream, key 2 none.
	streams := [][]kv.Pair{
		{pair(0, 1, 2), pair(1, 3, 11)},
		{pair(1, 12, 4), pair(2, 5)},
	}
	input := func(text string) MapInput {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		op, err := q.Op()
		if err != nil {
			t.Fatal(err)
		}
		return MapInput{Query: q, Op: op}
	}

	out := execReduce(input("filter_gt v[0 : 6] es {2} param 10"), 3, streams)
	if out.Keyblock != 3 || len(out.Keys) != 1 || out.Keys[0][0] != 1 {
		t.Fatalf("filter output = %+v, want only key 1 in keyblock 3", out)
	}
	if got := out.Values[0]; len(got) != 2 || got[0]+got[1] != 23 {
		t.Fatalf("key 1 survivors = %v, want 11 and 12", got)
	}

	out = execReduce(input("max v[0 : 6] es {2}"), 0, streams)
	if len(out.Keys) != 3 {
		t.Fatalf("aggregate emitted %d keys, want all 3", len(out.Keys))
	}
	for i, want := range []float64{2, 12, 5} {
		if out.Values[i][0] != want {
			t.Fatalf("max of key %d = %v, want %v", i, out.Values[i], want)
		}
	}
}
