package sidr

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
)

func synthTemp(k []int64) float64 {
	return datagen.Temperature(1)(coords.Coord(k))
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic([]int64{0}, synthTemp); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := Synthetic([]int64{4}, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	ds, err := Synthetic([]int64{4, 5}, synthTemp)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sh := ds.Shape()
	if len(sh) != 2 || sh[0] != 4 || sh[1] != 5 {
		t.Fatalf("Shape = %v", sh)
	}
	sh[0] = 99
	if ds.Shape()[0] != 4 {
		t.Fatal("Shape aliases internal state")
	}
}

func TestParseQueryErrors(t *testing.T) {
	if _, err := ParseQuery("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
	q, err := ParseQuery("avg t[0,0 : 28,10] es {7,5}")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() == "" {
		t.Fatal("empty String")
	}
	space, err := q.OutputSpace()
	if err != nil {
		t.Fatal(err)
	}
	if space[0] != 4 || space[1] != 2 {
		t.Fatalf("OutputSpace = %v", space)
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := Synthetic([]int64{28, 10}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 28,10] es {7,5}")
	if _, err := Run(nil, q, RunOptions{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Run(ds, nil, RunOptions{}); err == nil {
		t.Fatal("nil query accepted")
	}
	// Query exceeding the dataset's shape.
	big, _ := ParseQuery("avg t[0,0 : 100,10] es {7,5}")
	if _, err := Run(ds, big, RunOptions{}); err == nil {
		t.Fatal("oversized query accepted")
	}
}

// TestQueryKindMismatchRejected: a join handed to the single-dataset
// entry points, and a single-input query handed to RunJoin, are both
// refused with a sentinel before any plan is derived.
func TestQueryKindMismatchRejected(t *testing.T) {
	ds, _ := Synthetic([]int64{28, 10}, synthTemp)
	single, _ := ParseQuery("avg t[0,0 : 28,10] es {7,5}")
	join, err := ParseQuery("join jcorr a[0,0 : 28,10] es {7,5} with b[0,0 : 28,10] es {7,5}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ds, join, RunOptions{Engine: SIDR}); !errors.Is(err, ErrJoinNeedsTwoDatasets) {
		t.Errorf("Run(join) = %v, want ErrJoinNeedsTwoDatasets", err)
	}
	if _, err := Prepare(ds.Shape(), join, RunOptions{}); !errors.Is(err, ErrJoinNeedsTwoDatasets) {
		t.Errorf("Prepare(join) = %v, want ErrJoinNeedsTwoDatasets", err)
	}
	if _, err := RunJoin(ds, ds, single, RunOptions{Engine: SIDR}); !errors.Is(err, ErrNotJoin) {
		t.Errorf("RunJoin(single) = %v, want ErrNotJoin", err)
	}
}

func TestRunAllEnginesAgree(t *testing.T) {
	ds, err := Synthetic([]int64{56, 10}, synthTemp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("avg t[0,0 : 56,10] es {7,5}")
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for _, e := range []Engine{Hadoop, SciHadoop, SIDR} {
		res, err := Run(ds, q, RunOptions{Engine: e, Reducers: 3})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if len(res.Keys) != 16 { // 8 weeks × 2 lat bands
			t.Fatalf("%v: %d keys", e, len(res.Keys))
		}
		if first == nil {
			first = res
			continue
		}
		for i := range res.Keys {
			if res.Values[i][0] != first.Values[i][0] {
				t.Fatalf("%v disagrees at key %v", e, res.Keys[i])
			}
		}
	}
}

func TestRunMatchesDirectComputation(t *testing.T) {
	ds, _ := Synthetic([]int64{14, 5}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 14,5] es {7,5}")
	res, err := Run(ds, q, RunOptions{Engine: SIDR, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 2 {
		t.Fatalf("%d keys", len(res.Keys))
	}
	// Direct computation of week 0's average.
	var sum float64
	for d := int64(0); d < 7; d++ {
		for l := int64(0); l < 5; l++ {
			sum += synthTemp([]int64{d, l})
		}
	}
	want := sum / 35
	if math.Abs(res.Values[0][0]-want) > 1e-9 {
		t.Fatalf("week 0 avg = %v, want %v", res.Values[0][0], want)
	}
}

func TestRunKeysSortedRowMajor(t *testing.T) {
	ds, _ := Synthetic([]int64{16, 16}, synthTemp)
	q, _ := ParseQuery("max t[0,0 : 16,16] es {4,4}")
	res, err := Run(ds, q, RunOptions{Engine: SIDR, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Keys); i++ {
		if !coords.Coord(res.Keys[i-1]).Less(coords.Coord(res.Keys[i])) {
			t.Fatalf("keys not sorted at %d: %v >= %v", i, res.Keys[i-1], res.Keys[i])
		}
	}
}

func TestEarlyPartialsDelivered(t *testing.T) {
	ds, _ := Synthetic([]int64{64, 8}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 64,8] es {4,4}")
	var mu sync.Mutex
	var callbacks []int
	res, err := Run(ds, q, RunOptions{
		Engine:   SIDR,
		Reducers: 4,
		OnPartial: func(pr PartialResult) {
			mu.Lock()
			callbacks = append(callbacks, pr.Keyblock)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(callbacks) != 4 {
		t.Fatalf("%d partial callbacks", len(callbacks))
	}
	if len(res.Partials) != 4 {
		t.Fatalf("%d partials", len(res.Partials))
	}
	if res.FirstResult <= 0 || res.FirstResult > res.Elapsed {
		t.Fatalf("FirstResult = %v of %v", res.FirstResult, res.Elapsed)
	}
	// Partials must be in commit order.
	for i := 1; i < len(res.Partials); i++ {
		if res.Partials[i].At.Before(res.Partials[i-1].At) {
			t.Fatal("partials not in commit order")
		}
	}
	total := 0
	for _, pr := range res.Partials {
		total += len(pr.Keys)
	}
	if total != len(res.Keys) {
		t.Fatalf("partials cover %d keys of %d", total, len(res.Keys))
	}
}

// TestPartialCopiedOncePerConsumer: a Reduce output's keys are copied
// into a PartialResult once for Result.Partials and once more only when
// an OnPartial consumer exists. The consumer's copy is its own — writing
// through it reaches neither Result.Partials nor Result.Keys — and it
// costs a slice of key headers and one backing array per partial, however
// many keys the partial holds (NewPartial), none of which a callback-less
// run pays. The band is loose because allocation counts are not exact
// under the race runtime (±1 % of the run's total here, which is about
// one allocation per key elsewhere); a copy per key would measure ≥ keys.
func TestPartialCopiedOncePerConsumer(t *testing.T) {
	ds, _ := Synthetic([]int64{256, 64}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 256,64] es {2,2}")
	const keys = 128 * 32
	prep, err := Prepare(ds.Shape(), q, RunOptions{Engine: SIDR, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}

	res, err := prep.Run(context.Background(), ds, RunOptions{Workers: 1, OnPartial: func(pr PartialResult) {
		for _, k := range pr.Keys {
			for d := range k {
				k[d] = -1
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Run(context.Background(), ds, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Keys, ref.Keys) {
		t.Fatal("OnPartial consumer's keys alias Result.Keys")
	}
	byKB := map[int][][]int64{}
	for _, pr := range ref.Partials {
		byKB[pr.Keyblock] = pr.Keys
	}
	for _, pr := range res.Partials {
		if !reflect.DeepEqual(pr.Keys, byKB[pr.Keyblock]) {
			t.Fatalf("OnPartial consumer's keys alias Result.Partials (keyblock %d)", pr.Keyblock)
		}
	}

	allocs := func(opts RunOptions) float64 {
		opts.Workers = 1
		return testing.AllocsPerRun(5, func() {
			res, err := prep.Run(context.Background(), ds, opts)
			if err != nil || len(res.Keys) != keys {
				t.Fatalf("run: %v", err)
			}
		})
	}
	without := allocs(RunOptions{})
	with := allocs(RunOptions{OnPartial: func(pr PartialResult) {
		if len(pr.Keys) != keys/4 {
			t.Errorf("partial carries %d keys, want %d", len(pr.Keys), keys/4)
		}
	}})
	if extra := with - without; extra > 0.1*keys {
		t.Fatalf("OnPartial consumer cost %.0f extra allocations for %d keys (with %.0f, without %.0f); want two per partial",
			extra, keys, with, without)
	}
}

// TestNewPartialAllocationsDoNotGrowWithRows: the keys of a partial are
// copied into one backing array, so the copy is two allocations at any
// row count, and the sub-slices handed out cannot grow into each other.
func TestNewPartialAllocationsDoNotGrowWithRows(t *testing.T) {
	for _, rows := range []int{16, 16384} {
		out := mapreduce.ReduceOutput{Keyblock: 1, Keys: make([]coords.Coord, rows), Values: make([][]float64, rows)}
		for i := range out.Keys {
			out.Keys[i] = coords.Coord{int64(i), int64(i) + 1, int64(i) + 2}
		}
		var pr PartialResult
		if n := testing.AllocsPerRun(10, func() { pr = NewPartial(out, time.Time{}) }); n > 2 {
			t.Errorf("%d rows: NewPartial made %.0f allocations, want 2", rows, n)
		}
		_ = append(pr.Keys[0], -1)
		for i, k := range pr.Keys {
			if !reflect.DeepEqual(k, []int64(out.Keys[i])) {
				t.Fatalf("%d rows: key %d = %v, want %v", rows, i, k, out.Keys[i])
			}
		}
	}
}

func TestPriorityControlsFirstPartial(t *testing.T) {
	ds, _ := Synthetic([]int64{64, 8}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 64,8] es {4,4}")
	res, err := Run(ds, q, RunOptions{
		Engine:   SIDR,
		Reducers: 4,
		Priority: []int{2, 3, 0, 1},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partials[0].Keyblock != 2 {
		t.Fatalf("first partial = keyblock %d, want prioritised 2", res.Partials[0].Keyblock)
	}
}

func TestOpenFileDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ncf")
	if err := datagen.WriteDataset(path, "temp", coords.NewShape(28, 10), datagen.Temperature(1)); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(path, "temp")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := Open(path, "nope"); err == nil {
		t.Fatal("missing variable accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing.ncf"), "temp"); err == nil {
		t.Fatal("missing file accepted")
	}
	q, _ := ParseQuery("avg temp[0,0 : 28,10] es {7,5}")
	res, err := Run(ds, q, RunOptions{Engine: SIDR, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Must agree with the synthetic path.
	sds, _ := Synthetic([]int64{28, 10}, synthTemp)
	sres, err := Run(sds, q, RunOptions{Engine: SIDR, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Keys {
		if res.Values[i][0] != sres.Values[i][0] {
			t.Fatalf("file/synthetic disagree at %v", res.Keys[i])
		}
	}
}

func TestWriteDenseOutputs(t *testing.T) {
	ds, _ := Synthetic([]int64{64, 8}, synthTemp)
	q, _ := ParseQuery("avg t[0,0 : 64,8] es {4,4}")
	opts := RunOptions{Engine: SIDR, Reducers: 4}
	res, err := Run(ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := WriteDense(dir, ds, q, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("%d files", len(paths))
	}
	// Reassemble: every output key must be recoverable from some file's
	// origin + local coordinate.
	got := map[string]float64{}
	for _, p := range paths {
		f, err := ncfile.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Header().Var("out")
		if err != nil {
			t.Fatal(err)
		}
		shape, _ := f.Header().VarShape("out")
		vals, err := f.ReadSlab("out", coords.Slab{Corner: make(coords.Coord, shape.Rank()), Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		slab := coords.Slab{Corner: coords.NewCoord(v.Origin...), Shape: shape}
		i := 0
		slab.Each(func(k coords.Coord) bool {
			got[k.String()] = vals[i]
			i++
			return true
		})
		f.Close()
		os.Remove(p)
	}
	for i, k := range res.Keys {
		kc := coords.NewCoord(k...)
		if got[kc.String()] != res.Values[i][0] {
			t.Fatalf("dense files disagree at %v", k)
		}
	}
	if _, err := WriteDense(dir, ds, q, RunOptions{Engine: Hadoop}, res); err == nil {
		t.Fatal("non-SIDR dense write accepted")
	}
}

func TestFilterQueryThroughFacade(t *testing.T) {
	ds, _ := Synthetic([]int64{40, 10}, datagenGaussian)
	q, _ := ParseQuery("filter_gt g[0,0 : 40,10] es {4,5} param 2.5")
	res, err := Run(ds, q, RunOptions{Engine: SIDR, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every returned value must satisfy the predicate; keys with no
	// survivors are omitted from the result entirely.
	matched := 0
	for i := range res.Keys {
		for _, v := range res.Values[i] {
			if v <= 2.5 {
				t.Fatalf("filter returned %v <= 2.5", v)
			}
			matched++
		}
	}
	// Cross-check survivor count directly.
	want := 0
	for a := int64(0); a < 40; a++ {
		for b := int64(0); b < 10; b++ {
			if datagenGaussian([]int64{a, b}) > 2.5 {
				want++
			}
		}
	}
	if matched != want {
		t.Fatalf("found %d survivors, want %d", matched, want)
	}
}

func datagenGaussian(k []int64) float64 {
	return datagen.Gaussian(3, 0, 1)(coords.Coord(k))
}
