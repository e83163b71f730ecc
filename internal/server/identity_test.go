package server

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/core"
	"sidr/internal/jobs"
	"sidr/internal/join"
	"sidr/internal/metrics"
	"sidr/internal/query"
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
//
// One request is also one stream and one plan, whichever engine ran it:
// the executed job streams the same multiset of keyblock ids (every
// commit is a partial, a starved or fully pruned keyblock's included),
// keeps as many partials and reports a first result on both engines; and
// the tuple the workers were sent carries exactly the data-dependent
// inputs of the plan an in-process run derives — the index's kept list,
// a join's sampled layout. Mutation check (CHANGES.md, PR 22): dropping
// Pruned or Retile from cluster.planTuple fails this test — and
// TestClusterPrunedMatchesUnpruned, or the clustered-join and golden-hash
// tests, with it.
func TestRequestIdentityAcrossEnginesAndSpellings(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	var tapMu sync.Mutex
	tuples := map[string]cluster.JobPlan{} // job id -> the tuple its Map dispatches carried
	startTappedWorkers(t, coord, 2, func(req cluster.MapRequest) {
		tapMu.Lock()
		tuples[req.JobID] = req.Plan
		tapMu.Unlock()
	})
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

	// run executes the request and returns its result, whether it was a
	// cache hit, the keyblock ids its stream carried (sorted) and its id.
	run := func(req jobs.Request) (*sidr.Result, bool, []int, string) {
		t.Helper()
		j, err := f.mgr.Submit(req)
		if err != nil {
			t.Fatalf("submit %+v: %v", req, err)
		}
		var streamed []int
		st, err := j.Stream(context.Background(), func(pr sidr.PartialResult) error {
			streamed = append(streamed, pr.Keyblock)
			return nil
		})
		if err != nil || st != jobs.Done {
			t.Fatalf("job %+v: state %v, stream err %v, job err %v", req, st, err, j.Err())
		}
		sort.Ints(streamed)
		return j.Result(), j.Snapshot().ResultHit, streamed, j.ID
	}

	// 30 rows of 576 points: /8+1 makes ten 3-row splits. Only the last
	// days' rows reach 5 °C, none reaches 100.
	const filterPoints = 30*24*24/8 + 1
	for _, row := range []struct {
		name        string
		req         jobs.Request
		splitPoints int64
		kept        string // what the index must leave of a filter's splits: "some", "none"; "" = unpruned
	}{
		{"single-input", jobs.Request{
			// 24 rows of 576 points: /8+1 makes 3-row splits, any coarser
			// or finer divisor a different split count.
			Dataset: "temp", Query: "avg temp[0,0,0 : 24,24,24] es {1,4,4}",
		}, 24*24*24/8 + 1, ""},
		{"join", jobs.Request{
			Dataset: "left", Dataset2: "right", MaxSkew: 16,
			Query: "join javg a[0,0 : 48,32] es {8,8} with b[0,0 : 64,32] es {8,8}",
		}, 64*32/8 + 1, ""}, // side B is the larger one
		{"pruned-filter", jobs.Request{
			Dataset: "temp", Query: "filter_gt temp[0,0,0 : 30,24,24] es {1,4,4} param 5",
		}, filterPoints, "some"},
		{"fully-pruned-filter", jobs.Request{
			Dataset: "temp", Query: "filter_gt temp[0,0,0 : 30,24,24] es {1,4,4} param 100",
		}, filterPoints, "none"},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := inProcessPlan(t, registry, row.req, row.splitPoints)
			switch kept := len(want.Splits); {
			case row.kept == "" && want.KeptSplits != nil,
				row.kept == "some" && (kept == 0 || want.PrunedSplits == 0),
				row.kept == "none" && (kept != 0 || want.KeptSplits == nil):
				t.Fatalf("row wants kept=%q; the index kept %d splits and pruned %d (list %v)",
					row.kept, kept, want.PrunedSplits, want.KeptSplits)
			}
			var ref *sidr.Result
			var refStream []int
			for _, clustered := range []bool{false, true} {
				omitted := row.req
				omitted.Cluster = clustered
				explicit := omitted
				explicit.Reducers, explicit.SplitPoints = 4, row.splitPoints

				res, hit, streamed, id := run(omitted)
				if hit {
					t.Fatalf("cluster=%t: first submission was a cache hit", clustered)
				}
				if (len(res.Keys) == 0) != (row.kept == "none") {
					t.Fatalf("cluster=%t: %d result rows with kept=%q", clustered, len(res.Keys), row.kept)
				}
				again, hit, replayed, _ := run(explicit)
				if !hit {
					t.Errorf("cluster=%t: explicit defaults %d/%d missed the entry the omitted spelling cached",
						clustered, explicit.Reducers, explicit.SplitPoints)
				}
				if !reflect.DeepEqual(replayed, streamed) {
					t.Errorf("cluster=%t: the hit streamed keyblocks %v, its leader %v", clustered, replayed, streamed)
				}
				if len(streamed) != len(res.Partials) || len(streamed) != want.Part.NumKeyblocks() || res.FirstResult <= 0 {
					t.Errorf("cluster=%t: streamed %d partials, result keeps %d, plan has %d keyblocks, first result after %v",
						clustered, len(streamed), len(res.Partials), want.Part.NumKeyblocks(), res.FirstResult)
				}
				if refStream == nil {
					refStream = streamed
				} else if !reflect.DeepEqual(streamed, refStream) {
					t.Errorf("cluster=%t: streamed keyblocks %v, in process %v", clustered, streamed, refStream)
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
				if !clustered || len(want.Splits) == 0 {
					continue // nothing was dispatched, so no worker saw a tuple
				}
				tapMu.Lock()
				tuple, ok := tuples[id]
				tapMu.Unlock()
				if !ok {
					t.Fatalf("no worker received a Map dispatch of %s", id)
				}
				if !reflect.DeepEqual(tuple.Pruned, want.KeptSplits) {
					t.Errorf("workers were sent pruned=%v; the in-process plan keeps %v", tuple.Pruned, want.KeptSplits)
				}
				var wantRetile *join.Retile
				if want.Join != nil {
					rt := want.Join.Retiling()
					wantRetile = &rt
				}
				if got, want := mustJSON(t, tuple.Retile), mustJSON(t, wantRetile); got != want {
					t.Errorf("workers were sent retile %s; the in-process plan sampled %s", got, want)
				}
			}
		})
	}
	// Generated datasets are indexed at registration, so each executed
	// filter — two rows, in process and clustered — found its index.
	if hits, misses := f.metrics.Counter("sidrd_sidx_hits_total").Value(), f.metrics.Counter("sidrd_sidx_misses_total").Value(); hits != 4 || misses != 0 {
		t.Errorf("index lookups: %d hits, %d misses; want 4 and 0", hits, misses)
	}
}

// inProcessPlan derives the plan an in-process run of the request uses,
// the way the facade does: normalised parameters, the registry's index
// for a single-input query, both inputs sampled for a join.
func inProcessPlan(t *testing.T, registry *Registry, req jobs.Request, splitPoints int64) *core.Plan {
	t.Helper()
	q, err := query.Parse(req.Query)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Reducers: 4, SplitPoints: splitPoints, MaxSkew: req.MaxSkew}
	if q.Join {
		a, releaseA, err := registry.Acquire(req.Dataset, q.Variable)
		if err != nil {
			t.Fatal(err)
		}
		defer releaseA()
		b, releaseB, err := registry.Acquire(req.Dataset2, q.Variable2)
		if err != nil {
			t.Fatal(err)
		}
		defer releaseB()
		opts.JoinSamplerA, opts.JoinSamplerB = a.Reader(context.Background()), b.Reader(context.Background())
	} else {
		opts.Index = registry.Index(req.Dataset, q.Variable)
	}
	plan, err := core.NewPlan(q, core.EngineSIDR, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
