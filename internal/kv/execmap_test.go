package kv_test

import (
	"bytes"
	"math"
	"strings"
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

// spill is one keyblock's output of one Map task.
type spill struct {
	split, kb int
	out       mapreduce.MapOut
}

// mapSpills plans the query text on the SIDR engine over fields a and b (b for a
// join's second input), runs every split's Map task as the engine would
// — after tweak, when set — and returns the plan, the spill rank and
// every non-empty keyblock output.
func mapSpills(t *testing.T, text string, a, b func(coords.Coord) float64, opts core.Options, tweak func(*mapreduce.MapInput)) (*core.Plan, int, []spill) {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	readerA := &mapreduce.FuncReader{Fn: a}
	var readerB coords.RecordReader
	if b != nil {
		readerB = &mapreduce.FuncReader{Fn: b}
		opts.JoinSamplerA, opts.JoinSamplerB = readerA, readerB
	}
	plan, err := core.NewPlan(q, core.EngineSIDR, opts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := plan.TaskInput(readerA, readerB)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(&in)
	}
	var spills []spill
	for _, split := range plan.Splits {
		outs, _, err := mapreduce.ExecMap(in, split)
		if err != nil {
			t.Fatal(err)
		}
		for kb, out := range outs {
			if len(out.Pairs) > 0 {
				spills = append(spills, spill{split.ID, kb, out})
			}
		}
	}
	return plan, in.SpillRank(), spills
}

// singleOps and joinOps are the operators internal/ops registers (its
// TestNames pins the first list).
var (
	singleOps = []string{"absmax", "avg", "count", "filter_gt", "filter_lt", "filter_range", "max", "median", "min", "percentile", "range", "sort", "stddev", "sum"}
	joinOps   = []string{"javg", "jcorr", "jsum"}
)

// opQuery is operator op over input (a variable, its slab and its
// extraction shape), with the parameters it takes.
func opQuery(op, input string) string {
	param := map[string]string{"filter_gt": " param 100", "filter_lt": " param -100",
		"filter_range": " param -200,150", "percentile": " param 75"}[op]
	return op + " " + input + param
}

// opConfig is one Map output configuration: a query over fields a and b
// (b for a join's second input) and its plan options.
type opConfig struct {
	name, query string
	a, b        func(coords.Coord) float64
	opts        core.Options
}

// everyOperator is one configuration per registered operator and shape:
// each single-input operator at es {4,4,4}, 64 points a key, and at
// es {1,1,1}, one point a key; each join operator over plain keys and
// over a carved tile.
func everyOperator() []opConfig {
	var cs []opConfig
	for _, op := range singleOps {
		cs = append(cs,
			opConfig{op + "-es4", opQuery(op, "v[0,0,0 : 16,32,32] es {4,4,4}"), field, nil, core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32}},
			opConfig{op + "-es1", opQuery(op, "v[0,0,0 : 4,8,8] es {1,1,1}"), field, nil, core.Options{Reducers: 2, SplitPoints: 2 * 8 * 8}})
	}
	for _, op := range joinOps {
		cs = append(cs,
			opConfig{op + "-plain", "join " + op + " a[0,0 : 40,24] es {8,8} with b[0,0 : 40,24] es {8,8}", holed, holed,
				core.Options{Reducers: 3, SplitPoints: 4 * 24}},
			opConfig{op + "-skewed", "join " + op + " a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", hot, thin,
				core.Options{Reducers: 4, MaxSkew: 8, SplitPoints: 8 * 32}})
	}
	return cs
}

// TestSpillRoundTripsRealMapOutputs puts what Map tasks actually emit —
// not hand-built pairs — through the codec: every keyblock output of
// every split of each configuration, every operator's among them, must
// come back with equal keys and every kv.Value field equal by
// math.Float64bits, and stay within the size the structural layout
// promises: so many bytes per pair and per source point (on top of the
// 28-byte header and 64 bytes per block).
func TestSpillRoundTripsRealMapOutputs(t *testing.T) {
	type tcase struct {
		name          string
		query         string
		a, b          func(coords.Coord) float64
		opts          core.Options
		tweak         func(*mapreduce.MapInput)
		bytesPerPair  float64 // 0 = unchecked
		bytesPerPoint float64
		carved        bool // the join plan must have carved a tile
		nans          bool // the Map output must carry NaN samples
	}
	cases := []tcase{
		// Combined avg: one sum and one count per key, no sample column.
		{name: "avg-combined", query: "avg v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts: core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32}, bytesPerPair: 18},
		// Holistic: one pair per key, its samples of the split at 8 bytes
		// per source point plus the key's count and sample count — 8 + 14/n
		// per point for n samples per pair.
		{name: "median-uncombined", query: "median v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts:  core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32},
			tweak: func(in *mapreduce.MapInput) { in.Combine = false }, bytesPerPair: 14, bytesPerPoint: 8},
		// Finished: the splits hold every tile whole, so each key ships its
		// one median with its count and sample count, whatever its points.
		{name: "median-finished", query: "median v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts: core.Options{Reducers: 4, SplitPoints: 4 * 32 * 32}, bytesPerPair: 22},
		{name: "stddev-uncombined", query: "stddev v[0,0,0 : 16,32,32] es {4,4,4}", a: field,
			opts:  core.Options{Reducers: 4, SplitPoints: 2 * 32 * 32},
			tweak: func(in *mapreduce.MapInput) { in.Combine = false }},
		{name: "filter_gt-prefiltered", query: "filter_gt v[0,0 : 40,30] es {4,5} param 100", a: field,
			opts: core.Options{Reducers: 3, SplitPoints: 4 * 30}},
		// NaN samples: their blocks keep explicit columns. Uncombined, so
		// no key ships finished.
		{name: "median-nan-samples", query: "median v[0,0 : 28,10] es {7,5}", a: holed,
			opts:  core.Options{Reducers: 3, SplitPoints: 4 * 10},
			tweak: func(in *mapreduce.MapInput) { in.Combine = false }, nans: true},
		// Joins: rank+1 keys with the trailing side coordinate. jcorr is
		// holistic and never carves; the carved layout is exercised with
		// jsum on the same skewed inputs.
		{name: "jcorr-plain", query: "join jcorr a[0,0 : 40,24] es {8,8} with b[0,0 : 40,24] es {8,8}", a: holed, b: holed,
			opts: core.Options{Reducers: 3, SplitPoints: 4 * 24}},
		{name: "jcorr-skewed", query: "join jcorr a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", a: hot, b: thin,
			opts: core.Options{Reducers: 4, MaxSkew: 8, SplitPoints: 8 * 32}},
		{name: "jsum-carved", query: "join jsum a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", a: hot, b: thin,
			opts: core.Options{Reducers: 4, MaxSkew: 8, SplitPoints: 8 * 32}, carved: true},
	}
	for _, c := range everyOperator() {
		cases = append(cases, tcase{name: c.name, query: c.query, a: c.a, b: c.b, opts: c.opts, carved: strings.HasSuffix(c.name, "-skewed") && c.name != "jcorr-skewed"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, rank, spills := mapSpills(t, tc.query, tc.a, tc.b, tc.opts, tc.tweak)
			if tc.carved {
				shared := false
				for _, u := range plan.Join.Units {
					shared = shared || u.Tile != nil
				}
				if !shared {
					t.Fatal("no tile was carved — the case no longer tests what it names")
				}
			}
			pairs, nans := 0, 0
			for _, sp := range spills {
				out := sp.out
				pairs += len(out.Pairs)
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
						t.Fatalf("split %d kb %d %+v: %v", sp.split, sp.kb, opts, err)
					}
					data := buf.Bytes()
					h, got, err := kv.ReadSpill(bytes.NewReader(data))
					if err != nil {
						t.Fatalf("split %d kb %d %+v: %v", sp.split, sp.kb, opts, err)
					}
					if h.Rank != rank || h.SourceCount != out.SourceCount || len(got) != len(out.Pairs) {
						t.Fatalf("split %d kb %d %+v: header %+v with %d pairs, wrote rank %d annotation %d with %d pairs",
							sp.split, sp.kb, opts, h, len(got), rank, out.SourceCount, len(out.Pairs))
					}
					for i, want := range out.Pairs {
						g, w := got[i].Value, want.Value
						ok := got[i].Key.Equal(want.Key) && sameBits(g.Sum, w.Sum) && sameBits(g.SumSq, w.SumSq) &&
							sameBits(g.Min, w.Min) && sameBits(g.Max, w.Max) && g.Count == w.Count && len(g.Samples) == len(w.Samples)
						for s := 0; ok && s < len(w.Samples); s++ {
							ok = sameBits(g.Samples[s], w.Samples[s])
						}
						if !ok {
							t.Fatalf("split %d kb %d %+v pair %d:\n got  %v %+v\n want %v %+v", sp.split, sp.kb, opts, i, got[i].Key, g, want.Key, w)
						}
					}
					limit := 28 + 64*float64(h.Blocks) + tc.bytesPerPair*float64(len(got)) + tc.bytesPerPoint*float64(h.SourceCount)
					if tc.bytesPerPair > 0 && opts == (kv.V3Options{}) && float64(len(data)) > limit {
						t.Fatalf("split %d kb %d: %d pairs of %d source points in %d blocks encode to %d bytes, want ≤ %.0f (%.0f B/pair + %.0f B/point)",
							sp.split, sp.kb, len(got), h.SourceCount, h.Blocks, len(data), limit, tc.bytesPerPair, tc.bytesPerPoint)
					}
				}
			}
			if len(spills) == 0 || (nans > 0) != tc.nans {
				t.Fatalf("%d spills of %d pairs with %d NaN samples — the case no longer tests what it names", len(spills), pairs, nans)
			}
		})
	}
}

// v4FixedBytes is what spill version 4 spent on the fixed-width columns
// of one block of a Map output, when every Map task folded every
// statistic: nothing when each pair was one source point x whose
// statistics x derived, 40 bytes a pair when no pair carried a sample,
// 44 otherwise. A one-point value then held Sum = +0 + x, so an x that
// was NaN or −0 (+0 + −0 is +0) took its block out of the singleton
// layout.
func v4FixedBytes(pairs []kv.Pair) int {
	singletons, samples := true, 0
	for _, p := range pairs {
		v := p.Value
		single := v.Count == 1 && len(v.Samples) == 1
		singletons = singletons && single && v.Samples[0] == v.Samples[0] && math.Float64bits(v.Samples[0]) != 1<<63
		samples += len(v.Samples)
	}
	switch {
	case singletons:
		return 0
	case samples == 0:
		return 40 * len(pairs)
	}
	return 44 * len(pairs)
}

// TestNoOperatorSpillGrows writes every operator's Map output at a small
// shape, one point a key included, and holds the bytes its blocks spend
// on fixed-width columns to at most what version 4 spent on the same
// output: folding only the declared statistics may shrink a spill, never
// grow it. A median of many points a key spends 12 bytes a pair (its
// count and sample count), of one point a key nothing beyond the sample
// itself; avg spends 16, count 8.
func TestNoOperatorSpillGrows(t *testing.T) {
	exact := map[string]int{"median-es4": 12, "median-es1": 0, "avg-es4": 16, "avg-es1": 16, "count-es4": 8, "sort-es1": 0}
	for _, c := range everyOperator() {
		_, rank, spills := mapSpills(t, c.query, c.a, c.b, c.opts, nil)
		if len(spills) == 0 {
			t.Fatalf("%s: no Map output", c.name)
		}
		var fixed, v4, pairs int
		for _, sp := range spills {
			var buf bytes.Buffer
			if err := kv.WriteSpillV3(&buf, rank, sp.out.SourceCount, sp.out.Pairs, kv.V3Options{}); err != nil {
				t.Fatal(err)
			}
			f, blocks := kv.FixedBytes(buf.Bytes())
			at := 0
			for _, n := range blocks {
				v4 += v4FixedBytes(sp.out.Pairs[at : at+n])
				at += n
			}
			fixed, pairs = fixed+f, pairs+len(sp.out.Pairs)
		}
		t.Logf("%s: %d pairs, %.1f fixed bytes a pair (version 4: %.1f)", c.name, pairs, float64(fixed)/float64(pairs), float64(v4)/float64(pairs))
		if fixed > v4 {
			t.Errorf("%s: %d pairs spend %d bytes on fixed columns, version 4 spent %d", c.name, pairs, fixed, v4)
		}
		if want, ok := exact[c.name]; ok && fixed != want*pairs {
			t.Errorf("%s: %d fixed bytes over %d pairs, want %d a pair", c.name, fixed, pairs, want)
		}
	}
}
