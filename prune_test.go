package sidr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/exec"
)

// hotBand is deterministic data whose high values are confined to a
// narrow band of leading-dimension rows, so selective predicates can
// prune most splits while unselective ones prune none.
func hotBand(k []int64) float64 {
	v := float64((k[0]*31+k[1]*7)%97) / 97.0 * 20.0 // background in [0, 20)
	if k[0] >= 8 && k[0] < 16 {
		v += 100 // hot band: [100, 120)
	}
	return v
}

// TestPrunedQueriesMatchUnpruned is the seeded property test for the
// structural index: every randomly drawn value-predicated query must
// return byte-identical results with and without the index — whether
// the predicate matches everything, nothing, or just the hot band —
// and across the draw at least one plan must actually have pruned.
func TestPrunedQueriesMatchUnpruned(t *testing.T) {
	shape := []int64{64, 12}
	ds, err := Synthetic(shape, hotBand)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := ds.BuildIndex(16)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	totalPruned := 0
	for i := 0; i < 30; i++ {
		var qs string
		// Thresholds span [-10, 130]: below, inside and above both the
		// background and hot ranges.
		p := rng.Float64()*140 - 10
		switch rng.Intn(3) {
		case 0:
			qs = fmt.Sprintf("filter_gt t[0,0 : 64,12] es {4,4} param %g", p)
		case 1:
			qs = fmt.Sprintf("filter_lt t[0,0 : 64,12] es {4,4} param %g", p)
		default:
			p2 := rng.Float64()*140 - 10
			if p2 < p {
				p, p2 = p2, p
			}
			qs = fmt.Sprintf("filter_range t[0,0 : 64,12] es {4,4} param %g,%g", p, p2)
		}
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatalf("case %d: parse %q: %v", i, qs, err)
		}
		opts := RunOptions{Engine: SIDR, Reducers: 3, SplitPoints: 48}
		base, err := Run(ds, q, opts)
		if err != nil {
			t.Fatalf("case %d: unpruned %q: %v", i, qs, err)
		}
		opts.Index = vi
		plan, err := newPlan(q, &opts, nil, nil)
		if err != nil {
			t.Fatalf("case %d: plan pruned %q: %v", i, qs, err)
		}
		pruned, err := runPlan(plan, ds.Reader(t.Context()), nil, opts)
		if err != nil {
			t.Fatalf("case %d: pruned %q: %v", i, qs, err)
		}
		if !reflect.DeepEqual(base.Keys, pruned.Keys) || !reflect.DeepEqual(base.Values, pruned.Values) {
			t.Fatalf("case %d: pruned result diverges for %q\nunpruned: %d rows\npruned:   %d rows (dropped %d splits)",
				i, qs, len(base.Keys), len(pruned.Keys), plan.PrunedSplits)
		}
		totalPruned += plan.PrunedSplits
	}
	if totalPruned == 0 {
		t.Fatal("30 seeded queries never pruned a split — the property test exercised nothing")
	}
}

// TestPrunedSubsetInputAndEngines checks pruning on an offset sub-slab
// input (partial index coverage paths) and on every engine.
func TestPrunedSubsetInputAndEngines(t *testing.T) {
	shape := []int64{64, 12}
	ds, err := Synthetic(shape, hotBand)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := ds.BuildIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("filter_gt t[4,0 : 48,12] es {4,4} param 90")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{Hadoop, SciHadoop, SIDR} {
		opts := RunOptions{Engine: engine, Reducers: 2, SplitPoints: 36}
		base, err := Run(ds, q, opts)
		if err != nil {
			t.Fatalf("engine %v unpruned: %v", engine, err)
		}
		opts.Index = vi
		plan, err := newPlan(q, &opts, nil, nil)
		if err != nil {
			t.Fatalf("engine %v plan: %v", engine, err)
		}
		pruned, err := runPlan(plan, ds.Reader(t.Context()), nil, opts)
		if err != nil {
			t.Fatalf("engine %v pruned: %v", engine, err)
		}
		if plan.PrunedSplits == 0 {
			t.Fatalf("engine %v: selective query pruned nothing", engine)
		}
		if !reflect.DeepEqual(base.Keys, pruned.Keys) || !reflect.DeepEqual(base.Values, pruned.Values) {
			t.Fatalf("engine %v: pruned result diverges", engine)
		}
	}
}

// gappedBands is hotBand with two hot bands of leading-dimension rows,
// [16,28) and [60,72), far enough apart that the splits a selective
// predicate keeps are not contiguous and dead keys lie between them.
func gappedBands(k []int64) float64 {
	v := float64((k[0]*31+k[1]*7)%97) / 97.0 * 20.0
	if k[0] >= 16 && k[0] < 28 || k[0] >= 60 && k[0] < 72 {
		v += 100
	}
	return v
}

// TestPrunedGappedBandsMatchUnpruned: a pruned plan whose kept splits
// form two separate bands tiles only their keys, so every keyblock gets
// a live tile and a dependency, and its output is Float64bits-identical
// to the unpruned run on the in-process engine and on a cluster.
func TestPrunedGappedBandsMatchUnpruned(t *testing.T) {
	shape := []int64{96, 8}
	path := filepath.Join(t.TempDir(), "bands.ncf")
	if err := datagen.WriteDataset(path, "t", coords.NewShape(shape...), func(k coords.Coord) float64 { return gappedBands(k) }); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(path, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	vi, err := ds.BuildIndex(48)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("filter_gt t[0,0 : 96,8] es {2,4} param 90")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Engine: SIDR, Reducers: 4, SplitPoints: 16}
	base, err := Run(ds, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Index = vi
	plan, err := newPlan(q, &opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kept := plan.KeptSplits; len(kept) != 12 || kept[len(kept)-1]-kept[0] == len(kept)-1 {
		t.Fatalf("kept splits %v, want two separate bands of 6", kept)
	}
	// 24 live keys over 4 reducers: tiles of 6 keys, 5 of them live, so
	// every keyblock holds a live tile and depends on a kept split.
	for l, deps := range plan.Graph.KBToSplits {
		if len(deps) == 0 {
			t.Fatalf("keyblock %d [%d,%d) has no dependency", l, plan.Keyblocks[l].Lo, plan.Keyblocks[l].Hi)
		}
	}

	pruned, err := runPlan(plan, ds.Reader(t.Context()), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "in-process", base, pruned)

	c := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatTimeout: 30 * time.Second})
	defer c.Close()
	for i := range 2 {
		w, err := cluster.NewWorker(cluster.WorkerConfig{Name: fmt.Sprintf("w%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w)
		defer srv.Close()
		defer w.Close()
		registerWorker(t, c, fmt.Sprintf("w%d", i), srv.URL)
	}
	ex := exec.New(2)
	defer ex.Close()
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	res, err := c.RunPlan(ctx, plan, cluster.JobSpec{
		Dataset: cluster.DatasetSpec{Kind: "file", Path: path, Variable: "t"},
		Exec:    ex,
	})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := NewResult(plan, res.Loop, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "cluster", base, clustered)
}

// sameBits fails unless got has want's keys and the same float64 bits
// for every value.
func sameBits(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Keys, got.Keys) || len(want.Values) != len(got.Values) {
		t.Fatalf("%s: pruned keys diverge: %d rows, want %d", what, len(got.Keys), len(want.Keys))
	}
	for i := range want.Values {
		if len(want.Values[i]) != len(got.Values[i]) {
			t.Fatalf("%s: row %d has %d values, want %d", what, i, len(got.Values[i]), len(want.Values[i]))
		}
		for j, v := range want.Values[i] {
			if math.Float64bits(v) != math.Float64bits(got.Values[i][j]) {
				t.Fatalf("%s: row %d value %d is %v, want %v", what, i, j, got.Values[i][j], v)
			}
		}
	}
}

// registerWorker registers a worker with the coordinator through its
// HTTP endpoint, as a sidr-worker does at start.
func registerWorker(t *testing.T, c *cluster.Coordinator, name, url string) {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	body := fmt.Sprintf(`{"name":%q,"url":%q}`, name, url)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/register", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body)
	}
}
