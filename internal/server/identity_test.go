package server

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
)

// TestRequestIdentityAcrossEnginesAndSpellings drives one request per
// query kind through jobs.Manager in every cell of {in-process,
// clustered} × {defaults omitted, the same values spelled out}. All four
// results must be Float64bits-identical with equal keyblock loads and
// shuffle connection counts (the split set is the same), and —
// the part that depends on every layer resolving defaults through
// core.RequestDefaults — within each engine the explicit spelling must be
// a recorded result-cache hit on the entry the omitted spelling filled.
// The explicit values are literals on purpose: they pin the defaults (4
// reducers; the input — for a join the LARGER side — in ~8 pieces).
func TestRequestIdentityAcrossEnginesAndSpellings(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	startServerWorkers(t, coord, 2)
	registry := clusterRegistry(t) // "temp", 30×24×24
	for name, spec := range map[string]cluster.DatasetSpec{
		"left":  {Kind: "synthetic", Generator: "integers", Shape: []int64{48, 32}, Seed: 11},
		"right": {Kind: "synthetic", Generator: "zipf", Shape: []int64{64, 32}, Seed: 23, Skew: 1.3},
	} {
		if err := registry.AddGenerated(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	f := newFixtureCfg(t, registry, jobs.Config{Cluster: coord})

	run := func(req jobs.Request) (*sidr.Result, bool) {
		t.Helper()
		j, err := f.mgr.Submit(req)
		if err != nil {
			t.Fatalf("submit %+v: %v", req, err)
		}
		if st, err := j.Wait(context.Background()); err != nil || st != jobs.Done {
			t.Fatalf("job %+v: state %v, wait err %v, job err %v", req, st, err, j.Err())
		}
		return j.Result(), j.Snapshot().ResultHit
	}

	for _, row := range []struct {
		name        string
		req         jobs.Request
		splitPoints int64
	}{
		{"single-input", jobs.Request{
			// 24 rows of 576 points: /8+1 makes 3-row splits, any coarser
			// or finer divisor a different split count.
			Dataset: "temp", Query: "avg temp[0,0,0 : 24,24,24] es {1,4,4}",
		}, 24*24*24/8 + 1},
		{"join", jobs.Request{
			Dataset: "left", Dataset2: "right", MaxSkew: 16,
			Query: "join javg a[0,0 : 48,32] es {8,8} with b[0,0 : 64,32] es {8,8}",
		}, 64*32/8 + 1}, // side B is the larger one
	} {
		t.Run(row.name, func(t *testing.T) {
			var ref *sidr.Result
			for _, clustered := range []bool{false, true} {
				omitted := row.req
				omitted.Cluster = clustered
				explicit := omitted
				explicit.Reducers, explicit.SplitPoints = 4, row.splitPoints

				res, hit := run(omitted)
				if hit {
					t.Fatalf("cluster=%t: first submission was a cache hit", clustered)
				}
				if len(res.Keys) == 0 {
					t.Fatalf("cluster=%t: empty result", clustered)
				}
				again, hit := run(explicit)
				if !hit {
					t.Errorf("cluster=%t: explicit defaults %d/%d missed the entry the omitted spelling cached",
						clustered, explicit.Reducers, explicit.SplitPoints)
				}
				for _, got := range []*sidr.Result{res, again} {
					if ref == nil {
						ref = got
						continue
					}
					if !reflect.DeepEqual(got.Keys, ref.Keys) || !sameBits(got.Values, ref.Values) {
						t.Errorf("cluster=%t: result differs from the in-process omitted-defaults run", clustered)
					}
					if !reflect.DeepEqual(got.KeyblockLoads, ref.KeyblockLoads) {
						t.Errorf("cluster=%t: keyblock loads %v, want %v", clustered, got.KeyblockLoads, ref.KeyblockLoads)
					}
					// Same splits, fault-free run: the same Σ|I_ℓ| shuffle
					// fetches in both engines.
					if got.Connections != ref.Connections {
						t.Errorf("cluster=%t: %d shuffle connections, want %d — the engines planned different splits",
							clustered, got.Connections, ref.Connections)
					}
				}
			}
		})
	}
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}
