package kv_test

import (
	"bytes"
	"math"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
)

// field is a full-mantissa pseudo-random value per coordinate, so a
// column that came back recomputed differently would differ in its low
// bits.
func field(k coords.Coord) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range k {
		h ^= uint64(x) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return (float64(h>>11)/float64(1<<53) - 0.5) * 1e3
}

// holed is field with about one cell in seven missing (NaN).
func holed(k coords.Coord) float64 {
	if v := field(k); math.Float64bits(v)%7 != 0 {
		return v
	}
	return math.NaN()
}

// hot concentrates a join side's load in its first tile, so the planner
// carves that tile into shares.
func hot(k coords.Coord) float64 {
	if (k[0] < 8 && k[1] < 8) || (3*k[0]+k[1])%29 == 0 {
		return field(k)
	}
	return math.NaN()
}

// thin is sparse everywhere: the light side of a carved tile.
func thin(k coords.Coord) float64 {
	if (k[0]+2*k[1])%17 == 0 {
		return field(k)
	}
	return math.NaN()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSpillRoundTripsRealMapOutputs puts what Map tasks actually emit —
// not hand-built pairs — through the codec: every keyblock output of
// every split of each configuration must come back with equal keys and
// every kv.Value field equal by math.Float64bits, pass VerifySpill, and
// stay within the size the structural layout promises: so many bytes per
// pair and per source point (on top of the 28-byte header and 64 bytes
// per block).
func TestSpillRoundTripsRealMapOutputs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		query         string
		a, b          func(coords.Coord) float64
		opts          core.Options
		tweak         func(*mapreduce.MapInput)
		bytesPerPair  float64 // 0 = unchecked
		bytesPerPoint float64
		carved        bool // the join plan must have carved a tile
		nans          bool // the Map output must carry NaN samples
	}{
		// Combined distributive: one aggregate per key, no sample column.
		{name: "avg-combined", query: "avg v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts: core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32}, bytesPerPair: 42},
		// Holistic: one pair per key, its 32 samples of the split at 8 bytes
		// per source point plus the key's own statistics — 8 + 48/n per
		// point for n samples per pair.
		{name: "median-uncombined", query: "median v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts: core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32}, bytesPerPair: 48, bytesPerPoint: 8},
		{name: "stddev-uncombined", query: "stddev v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts:  core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32},
			tweak: func(in *mapreduce.MapInput) { in.Combine = false }},
		{name: "filter_gt-prefiltered", query: "filter_gt v[0,0 : 40,30] es {4,5} param 100", a: field,
			opts: core.Options{Reducers: 3, SplitPoints: 4 * 30}},
		// NaN samples: their blocks keep explicit columns.
		{name: "median-nan-samples", query: "median v[0,0 : 28,10] es {7,5}", a: holed,
			opts: core.Options{Reducers: 3, SplitPoints: 4 * 10}, nans: true},
		// Joins: rank+1 keys with the trailing side coordinate. jcorr is
		// holistic and never carves; the carved layout is exercised with
		// jsum on the same skewed inputs.
		{name: "jcorr-plain", query: "join jcorr a[0,0 : 40,24] es {8,8} with b[0,0 : 40,24] es {8,8}", a: holed, b: holed,
			opts: core.Options{Reducers: 3, SplitPoints: 4 * 24}},
		{name: "jcorr-skewed", query: "join jcorr a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", a: hot, b: thin,
			opts: core.Options{Reducers: 4, MaxSkew: 8, SplitPoints: 8 * 32}},
		{name: "jsum-carved", query: "join jsum a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", a: hot, b: thin,
			opts: core.Options{Reducers: 4, MaxSkew: 8, SplitPoints: 8 * 32}, carved: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := query.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			readerA := &mapreduce.FuncReader{Fn: tc.a}
			var readerB coords.RecordReader
			if tc.b != nil {
				readerB = &mapreduce.FuncReader{Fn: tc.b}
				tc.opts.JoinSamplerA, tc.opts.JoinSamplerB = readerA, readerB
			}
			plan, err := core.NewPlan(q, core.EngineSIDR, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.carved {
				shared := false
				for _, u := range plan.Join.Units {
					shared = shared || u.Tile != nil
				}
				if !shared {
					t.Fatal("no tile was carved — the case no longer tests what it names")
				}
			}
			in, err := plan.TaskInput(readerA, readerB)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tweak != nil {
				tc.tweak(&in)
			}
			rank := in.SpillRank()
			spills, pairs, nans := 0, 0, 0
			for _, split := range plan.Splits {
				outs, _, err := mapreduce.ExecMap(in, split)
				if err != nil {
					t.Fatal(err)
				}
				for kb, out := range outs {
					if len(out.Pairs) == 0 {
						continue
					}
					spills, pairs = spills+1, pairs+len(out.Pairs)
					for _, p := range out.Pairs {
						for _, x := range p.Value.Samples {
							if x != x {
								nans++
							}
						}
					}
					for _, opts := range []kv.V3Options{{}, {BlockPairs: 7}} {
						var buf bytes.Buffer
						if err := kv.WriteSpillV3(&buf, rank, out.SourceCount, out.Pairs, opts); err != nil {
							t.Fatalf("split %d kb %d %+v: %v", split.ID, kb, opts, err)
						}
						data := buf.Bytes()
						h, got, err := kv.ReadSpill(bytes.NewReader(data))
						if err != nil {
							t.Fatalf("split %d kb %d %+v: %v", split.ID, kb, opts, err)
						}
						if vh, err := kv.VerifySpill(bytes.NewReader(data)); err != nil || vh != h {
							t.Fatalf("split %d kb %d %+v: VerifySpill = %+v, %v; ReadSpill read %+v", split.ID, kb, opts, vh, err, h)
						}
						if h.Rank != rank || h.SourceCount != out.SourceCount || len(got) != len(out.Pairs) {
							t.Fatalf("split %d kb %d %+v: header %+v with %d pairs, wrote rank %d annotation %d with %d pairs",
								split.ID, kb, opts, h, len(got), rank, out.SourceCount, len(out.Pairs))
						}
						for i, want := range out.Pairs {
							g, w := got[i].Value, want.Value
							ok := got[i].Key.Equal(want.Key) && sameBits(g.Sum, w.Sum) && sameBits(g.SumSq, w.SumSq) &&
								sameBits(g.Min, w.Min) && sameBits(g.Max, w.Max) && g.Count == w.Count && len(g.Samples) == len(w.Samples)
							for s := 0; ok && s < len(w.Samples); s++ {
								ok = sameBits(g.Samples[s], w.Samples[s])
							}
							if !ok {
								t.Fatalf("split %d kb %d %+v pair %d:\n got  %v %+v\n want %v %+v", split.ID, kb, opts, i, got[i].Key, g, want.Key, w)
							}
						}
						limit := 28 + 64*float64(h.Blocks) + tc.bytesPerPair*float64(len(got)) + tc.bytesPerPoint*float64(h.SourceCount)
						if tc.bytesPerPair > 0 && opts == (kv.V3Options{}) && float64(len(data)) > limit {
							t.Fatalf("split %d kb %d: %d pairs of %d source points in %d blocks encode to %d bytes, want ≤ %.0f (%.0f B/pair + %.0f B/point)",
								split.ID, kb, len(got), h.SourceCount, h.Blocks, len(data), limit, tc.bytesPerPair, tc.bytesPerPoint)
						}
					}
				}
			}
			if spills == 0 || (nans > 0) != tc.nans {
				t.Fatalf("%d spills of %d pairs with %d NaN samples — the case no longer tests what it names", spills, pairs, nans)
			}
		})
	}
}
