package core

import (
	"math/rand"
	"reflect"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// TestSplitsFollowTheTileGrid is the split geometry's property over
// random ranks, extractions with and without stride, corners on and off
// the tile grid, and targets:
//
//   - no band is more than twice the band the target asks for;
//   - on an input whose leading corner is on the grid, unless one stride
//     is more than twice the target band, every interior band boundary
//     is a multiple of the leading stride and no tile crosses one, so
//     every key is split-local;
//   - otherwise the splits are exactly the target's.
func TestSplitsFollowTheTileGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	aligned := 0
	for iter := 0; iter < 3000; iter++ {
		rank := rng.Intn(3) + 1
		shape, es, corner := make(coords.Shape, rank), make(coords.Shape, rank), make(coords.Coord, rank)
		var stride coords.Shape
		if rng.Intn(2) == 0 {
			stride = make(coords.Shape, rank)
		}
		for d := range shape {
			shape[d] = int64(rng.Intn(6) + 1)
			es[d] = int64(rng.Intn(6) + 1)
			if stride != nil {
				stride[d] = es[d] + int64(rng.Intn(4))
			}
		}
		shape[0] = int64(rng.Intn(80) + 1)
		e, err := coords.NewExtraction(es, stride)
		if err != nil {
			t.Fatal(err)
		}
		st := e.EffectiveStride()[0]
		corner[0] = st * int64(rng.Intn(4))
		onGrid := rng.Intn(3) > 0
		if !onGrid {
			corner[0] += int64(rng.Intn(int(st)))
			onGrid = corner[0]%st == 0
		}
		for d := 1; d < rank; d++ {
			corner[d] = int64(rng.Intn(5))
		}
		q := &query.Query{Operator: "median", Variable: "v", Input: coords.Slab{Corner: corner, Shape: shape}, Extraction: e}
		if _, err := q.IntermediateSpace(); err != nil {
			continue // the whole input sits in stride gaps
		}
		row := q.Input.Size() / shape[0]
		band := int64(rng.Intn(30) + 1)
		target := band*row + rng.Int63n(row)
		p, err := NewPlan(q, EngineSIDR, Options{Reducers: 2, SplitPoints: target})
		if err != nil {
			t.Fatalf("%v %v target %d: %v", q.Input, e, target, err)
		}
		if p.SplitPoints != target {
			t.Fatalf("plan records split points %d, requested %d", p.SplitPoints, target)
		}
		cut := p.Splits[0].Slab.Shape[0]
		if cut > 2*band {
			t.Fatalf("%v %v: %d-row bands for a %d-row target", q.Input, e, cut, band)
		}
		if !onGrid || st > 2*band {
			want, err := mapreduce.GenerateSplits(q.Input, target, nil, "", bytesPerPoint)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Splits, want) {
				t.Fatalf("%v %v target %d (on grid %t): splits %v, want the target's %v", q.Input, e, target, onGrid, p.Splits, want)
			}
			continue
		}
		aligned++
		lo, hi := q.Input.Corner[0], q.Input.Corner[0]+shape[0]
		for i, s := range p.Splits {
			a, b := s.Slab.Corner[0], s.Slab.Corner[0]+s.Slab.Shape[0]
			if i > 0 && a%st != 0 {
				t.Fatalf("%v %v target %d: interior boundary %d is not a multiple of stride %d", q.Input, e, target, a, st)
			}
			// Every tile the band reaches lies in it, clipped to the input.
			for k := a / st; k*st < b; k++ {
				if k*st+es[0] <= a {
					continue // the band starts in this tile's gap
				}
				if tlo, thi := max(k*st, lo), min(k*st+es[0], hi); tlo < a || thi > b {
					t.Fatalf("%v %v target %d: tile rows [%d,%d) cross band [%d,%d)", q.Input, e, target, tlo, thi, a, b)
				}
			}
		}
	}
	if aligned < 1000 {
		t.Fatalf("only %d aligned geometries drawn", aligned)
	}
}

// TestSplitGeometryPinned pins the split counts of the geometries the
// repository runs. The aligned ones: shuffle_median's 2-row target under
// es {4,4,4} becomes 4-row bands, 32 → 16 splits, and examples/climate's
// 45-row default under es {28,10,10} becomes 56-row bands, 9 → 7, and a
// join's 5-row target under es {8,8} 8-row bands on each side. The
// unchanged ones: the other bench workloads' targets are already
// multiples of their strides; the two tall-tile smoke queries keep their
// target, as a 365-row stride is more than twice their band; and an
// input whose corner is off the grid keeps its target. Σ|I_ℓ| is
// reported, not pinned: rounding a band down adds splits.
func TestSplitGeometryPinned(t *testing.T) {
	defaults := func(q *query.Query) int64 {
		_, sp := RequestDefaults(q, 0, 0)
		return sp
	}
	cases := []struct {
		name          string
		query         string
		reducers      int
		splitPoints   func(*query.Query) int64
		before, after int
	}{
		{"shuffle_median", "median temp[0,0,0 : 64,128,64] es {4,4,4}", 8,
			func(q *query.Query) int64 { return q.Input.Size() / 32 }, 32, 16},
		{"scan_avg", "avg temp[0,0,0 : 512,256,64] es {8,8,8}", 8,
			func(q *query.Query) int64 { return q.Input.Size() / 64 }, 64, 64},
		{"prune_filter", "filter_gt v[0,0,0 : 2048,128,64] es {4,8,8} param 900", 16,
			func(q *query.Query) int64 { return q.Input.Size() / 512 }, 512, 512},
		{"join_zipf", "join jcorr a[0,0 : 4096,512] es {16,16} with b[0,0 : 4096,512] es {16,16}", 8,
			func(q *query.Query) int64 { return q.Input.Size()/8 + 1 }, 16, 16},
		{"join, sides of 64 and 128 rows", "join javg a[0,0 : 64,32] es {8,8} with b[0,0 : 128,32] es {8,8}", 4,
			func(*query.Query) int64 { return 5 * 32 }, 13 + 26, 8 + 16},
		{"serve_mix median", "median v[96,32,0 : 32,64,64] es {4,4,4}", 4, defaults, 8, 8},
		{"examples/climate", "avg temperature[0,0,0 : 364,60,40] es {28,10,10}", 4, defaults, 9, 7},
		{"cluster_smoke drain", "avg temperature[0,0,0 : 364,50,40] es {365,50,40}", 4, defaults, 9, 9},
		{"serve_smoke quota slot-holder", "median windspeed[0,0,0 : 365,50,40] es {365,50,40}", 4, defaults, 9, 9},
		{"cluster_smoke median", "median temperature[0,0,0 : 364,50,40] es {7,5,4}", 4, defaults, 9, 9},
		{"off-grid corner", "avg v[2,1,0 : 45,18,11] es {4,3,5}", 5,
			func(*query.Query) int64 { return 5 * 18 * 11 }, 9, 9},
	}
	for _, c := range cases {
		q := mustParse(t, c.query)
		sp := c.splitPoints(q)
		p, err := NewPlan(q, EngineSIDR, Options{Reducers: c.reducers, SplitPoints: sp})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The target's own cut, each side of a join on its own.
		sides := []coords.Slab{q.Input}
		if q.Join {
			sides = append(sides, q.Input2)
		}
		var unaligned []mapreduce.InputSplit
		for _, in := range sides {
			splits, err := mapreduce.GenerateSplits(in, sp, nil, "", bytesPerPoint)
			if err != nil {
				t.Fatal(err)
			}
			unaligned = append(unaligned, splits...)
		}
		if len(unaligned) != c.before || len(p.Splits) != c.after {
			t.Fatalf("%s: %d splits at the target, %d planned; want %d and %d", c.name, len(unaligned), len(p.Splits), c.before, c.after)
		}
		if q.Join {
			t.Logf("%s: %d → %d splits, Σ|I_ℓ| %d", c.name, c.before, c.after, p.Graph.SIDRConnections())
			continue
		}
		before, err := NewPlan(q, EngineSIDR, Options{Reducers: c.reducers, SplitPoints: sp, Splits: unaligned})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d → %d splits, Σ|I_ℓ| %d → %d", c.name, c.before, c.after,
			before.Graph.SIDRConnections(), p.Graph.SIDRConnections())
	}
}

// TestPruneSplitsCutsThePlansSplits: the keep list PruneSplits computes
// without a plan indexes the splits NewPlan cuts, on the tile grid: a
// 4-row target under es {8,2,2} is 8-row bands for both.
func TestPruneSplitsCutsThePlansSplits(t *testing.T) {
	shape := coords.NewShape(2048, 4, 4)
	reader := &mapreduce.FuncReader{Fn: func(k coords.Coord) float64 {
		if k[0] >= 384 && k[0] < 512 {
			return 1000
		}
		return 1
	}}
	vi, err := sidx.BuildVar("*", shape, reader, sidx.BuildOptions{Blocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, "filter_gt v[0,0,0 : 2048,4,4] es {8,2,2} param 900")
	sp := shape.Size() / 512
	p, err := NewPlan(q, EngineSIDR, Options{Reducers: 4, SplitPoints: sp, Index: vi})
	if err != nil {
		t.Fatal(err)
	}
	keep, total, pruned, err := PruneSplits(q, sp, vi)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned || total != 256 || total != len(p.Splits)+p.PrunedSplits || !reflect.DeepEqual(keep, p.KeptSplits) {
		t.Fatalf("PruneSplits kept %v of %d (pruned %t); the plan kept %v of %d", keep, total, pruned, p.KeptSplits, len(p.Splits)+p.PrunedSplits)
	}
}
