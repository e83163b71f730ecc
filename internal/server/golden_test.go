package server

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"
	"time"

	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
)

// goldenHashes are the result hashes (keys plus math.Float64bits of every
// value) of goldenQueries, captured at the commit BEFORE the Map kernel
// was rebuilt on row batches and a dense tile (PR 18's parent, 21751f4).
// Every engine, in process and clustered, must keep reproducing them:
// identity with the per-point kernel is a test, not a claim. The data is
// non-integer on purpose — a reassociated sum changes the low bits.
// filter_gt is the one hash recaptured since: a filter's values used to
// come sorted and now come in the row-major order of the key's source
// cells. Its keys, counts and each key's values are the old ones; only
// their order within a key moved.
var goldenHashes = map[string]uint64{
	"avg":       0xabfc75edaa1e7955,
	"stddev":    0x6899655d4093ea1a,
	"median":    0x122aef199c787a71,
	"filter_gt": 0xd8d10d3a6046278c,
	"strided":   0xb19482808941f3cb,
	"jcorr":     0x982124c40ae724cb,
	"javg":      0x57fd2defed1d76d3,
	"carved":    0x1458ca0832bc1c7c,
}

var goldenQueries = []struct {
	name string
	req  jobs.Request
}{
	// Non-zero corner, partial trailing tiles in every dimension, splits
	// (5 rows) that cut the 4-row tiles.
	{"avg", jobs.Request{Dataset: "g3", Query: "avg v[2,1,0 : 45,18,11] es {4,3,5}", Reducers: 5, SplitPoints: 5 * 18 * 11}},
	{"stddev", jobs.Request{Dataset: "g3", Query: "stddev v[2,1,0 : 45,18,11] es {4,3,5}", Reducers: 5, SplitPoints: 5 * 18 * 11}},
	{"median", jobs.Request{Dataset: "g3", Query: "median v[0,0,0 : 48,20,12] es {6,5,4}", Reducers: 3, SplitPoints: 4 * 20 * 12}},
	{"filter_gt", jobs.Request{Dataset: "g3", Query: "filter_gt v[0,0,0 : 48,20,12] es {3,4,4} param 13.5", Reducers: 4, SplitPoints: 2 * 20 * 12}},
	{"strided", jobs.Request{Dataset: "g3", Query: "avg v[1,0,1 : 47,20,11] es {2,3,2} stride {3,4,5}", Reducers: 4, SplitPoints: 7 * 20 * 11}},
	{"jcorr", jobs.Request{Dataset: "ja", Dataset2: "jb", MaxSkew: 16, Reducers: 4,
		Query: "join jcorr a[0,0 : 96,32] es {8,8} with b[0,0 : 128,32] es {8,8}"}},
	{"javg", jobs.Request{Dataset: "ja", Dataset2: "jb", MaxSkew: 16, Reducers: 4,
		Query: "join javg a[0,0 : 96,32] es {8,8} with b[0,0 : 128,32] es {8,8}"}},
	// One hot tile against a thin side: the planner carves the tile into
	// shares (heavy side split by cell offset, light side replicated).
	{"carved", jobs.Request{Dataset: "ha", Dataset2: "hb", MaxSkew: 8, Reducers: 4,
		Query: "join javg a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}"}},
}

func goldenHash(keys [][]int64, values [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(len(keys)))
	for i, k := range keys {
		put(uint64(len(k)))
		for _, x := range k {
			put(uint64(x))
		}
		put(uint64(len(values[i])))
		for _, v := range values[i] {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestGoldenHashesMatchParent runs every golden query on seeded datagen
// files through jobs.Manager on the SIDR and SciHadoop engines, in
// process and on a two-worker cluster, and holds each result against the
// hash captured at the parent commit.
func TestGoldenHashesMatchParent(t *testing.T) {
	dir := t.TempDir()
	gauss := datagen.Gaussian(5, 10, 3)
	presence := datagen.Zipf(23, 1.3)
	sideB := datagen.Gaussian(31, -2, 1.5)
	files := map[string]struct {
		variable string
		shape    coords.Shape
		fn       func(coords.Coord) float64
	}{
		"g3": {"v", coords.NewShape(48, 20, 12), gauss},
		"ja": {"a", coords.NewShape(96, 32), datagen.Gaussian(17, 4, 2)},
		// Zipf presence over non-integer values: deep rows are mostly
		// missing (NaN), so the planner re-tiles and javg carves shares.
		"jb": {"b", coords.NewShape(128, 32), func(k coords.Coord) float64 {
			if math.IsNaN(presence(k)) {
				return math.NaN()
			}
			return sideB(k)
		}},
		"ha": {"a", coords.NewShape(64, 32), func(k coords.Coord) float64 {
			if (k[0] < 8 && k[1] < 8) || (3*k[0]+k[1])%29 == 0 {
				return gauss(k)
			}
			return math.NaN()
		}},
		"hb": {"b", coords.NewShape(64, 32), func(k coords.Coord) float64 {
			if (k[0]+2*k[1])%17 == 0 {
				return sideB(k)
			}
			return math.NaN()
		}},
	}
	registry := NewRegistry()
	for name, f := range files {
		path := filepath.Join(dir, name+".ncf")
		if err := datagen.WriteDataset(path, f.variable, f.shape, f.fn); err != nil {
			t.Fatal(err)
		}
		if err := registry.AddFile(name, path); err != nil {
			t.Fatal(err)
		}
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	startServerWorkers(t, coord, 2)
	f := newFixtureCfg(t, registry, jobs.Config{Cluster: coord})

	for _, g := range goldenQueries {
		for _, engine := range []string{"sidr", "scihadoop"} {
			for _, clustered := range []bool{false, true} {
				req := g.req
				req.Engine, req.Cluster = engine, clustered
				j, err := f.mgr.Submit(req)
				if err != nil {
					t.Fatalf("%s %s cluster=%t: submit: %v", g.name, engine, clustered, err)
				}
				if st, err := j.Wait(context.Background()); err != nil || st != jobs.Done {
					t.Fatalf("%s %s cluster=%t: state %v, wait err %v, job err %v", g.name, engine, clustered, st, err, j.Err())
				}
				res := j.Result()
				if len(res.Keys) == 0 {
					t.Fatalf("%s %s cluster=%t: empty result", g.name, engine, clustered)
				}
				if got, want := goldenHash(res.Keys, res.Values), goldenHashes[g.name]; got != want {
					t.Errorf("%s %s cluster=%t: hash %#x, want %#x (captured at the parent commit)", g.name, engine, clustered, got, want)
				}
			}
		}
	}
}
