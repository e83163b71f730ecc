package join

import (
	"testing"

	"sidr/internal/coords"
	"sidr/internal/query"
	"sidr/internal/skew"
)

type funcReader struct{ fn func(coords.Coord) float64 }

func (r funcReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	dst = dst[:0]
	slab.EachReuse(func(k coords.Coord) bool {
		dst = append(dst, r.fn(k))
		return true
	})
	return dst, nil
}

func mustQuery(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return q
}

func bandSplits(t *testing.T, input coords.Slab, n int64) []coords.Slab {
	t.Helper()
	rows, err := input.SplitDim(0, (input.Shape[0]+n-1)/n)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// hotCorner concentrates all load in the first tile: dense in the 8x8
// corner, missing elsewhere.
func hotCorner(k coords.Coord) float64 {
	if k[0] < 8 && k[1] < 8 {
		return float64(k[0]*100 + k[1])
	}
	return nan()
}

func nan() float64 {
	var z float64
	return 0 / z
}

func dense(k coords.Coord) float64 { return float64(k[0] + k[1]) }

// TestRetileReducesSkew plans a join whose load concentrates in one tile
// and checks that re-tiling yields a strictly more balanced layout than
// the base partition+ blocks, with the hot tile carved into shares.
func TestRetileReducesSkew(t *testing.T) {
	q := mustQuery(t, "join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}")
	splits := bandSplits(t, q.Input, 16)
	opts := Options{Reducers: 4, MaxSkew: 8}

	naive, err := Build(q, Options{Reducers: opts.Reducers, MaxSkew: opts.MaxSkew, NoRetile: true},
		funcReader{hotCorner}, funcReader{hotCorner}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	retiled, err := Build(q, opts, funcReader{hotCorner}, funcReader{hotCorner}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(retiled.Units) <= len(naive.Units) {
		t.Fatalf("retiled layout has %d units, naive %d — expected more", len(retiled.Units), len(naive.Units))
	}
	shares := 0
	for _, u := range retiled.Units {
		if u.shared() {
			shares++
		}
	}
	if shares < 2 {
		t.Fatalf("hot tile not carved into shares: %d share units", shares)
	}
	sNaive := skew.Summarize(naive.EstLoads)
	sRetiled := skew.Summarize(retiled.EstLoads)
	if sRetiled.MaxOverMean >= sNaive.MaxOverMean {
		t.Fatalf("retiling did not reduce skew: MaxOverMean %v -> %v", sNaive.MaxOverMean, sRetiled.MaxOverMean)
	}
}

// TestRebuildDeterministic checks the worker path: rebuilding from the
// recorded Retile yields the identical unit layout and routing without
// re-sampling.
func TestRebuildDeterministic(t *testing.T) {
	q := mustQuery(t, "join javg a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}")
	splits := bandSplits(t, q.Input, 16)
	p, err := Build(q, Options{Reducers: 4, MaxSkew: 8}, funcReader{hotCorner}, funcReader{dense}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rebuild(q, p.SideBoundary, p.Retiling())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Units) != len(p.Units) {
		t.Fatalf("rebuild has %d units, original %d", len(r.Units), len(p.Units))
	}
	for i := range p.Units {
		a, b := p.Units[i], r.Units[i]
		if a.Lo != b.Lo || a.Hi != b.Hi || a.OffLo != b.OffLo || a.OffHi != b.OffHi || a.Heavy != b.Heavy {
			t.Fatalf("unit %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestGraphCountsCoverInputs checks the §3.2.1 invariant the tally
// barrier relies on: summed expected counts equal the cells of each side
// that map into the join keyspace — the whole input for a dense tiling;
// stride-gap cells and cells outside the other side's tile range excluded
// for a strided one with offset corners.
func TestGraphCountsCoverInputs(t *testing.T) {
	for _, query := range []string{
		"join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}",
		"join jsum a[3,5 : 45,37] es {3,4} stride {5,6} with b[9,2 : 40,40] es {3,4} stride {5,6}",
	} {
		q := mustQuery(t, query)
		splitsA, splitsB := bandSplits(t, q.Input, 16), bandSplits(t, q.Input2, 16)

		// Uniform loads: no shares, so counts must cover both inputs exactly.
		p, err := Build(q, Options{Reducers: 4}, funcReader{dense}, funcReader{dense}, splitsA, splitsB)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.shares) > 0 {
			t.Fatalf("%s: uniform loads carved a tile", query)
		}
		g, err := BuildGraph(p, splitsA, splitsB)
		if err != nil {
			t.Fatal(err)
		}
		// mapped counts a side's cells that map into the keyspace, point
		// by point.
		mapped := func(input coords.Slab) (n int64) {
			input.EachReuse(func(c coords.Coord) bool {
				if kp, ok := mapKey(q.Extraction, c, nil); ok && slabContains(p.Space, kp) {
					n++
				}
				return true
			})
			return n
		}
		wantA, wantB := mapped(q.Input), mapped(q.Input2)
		var total int64
		for _, c := range g.ExpectedCount {
			total += c
		}
		if total != wantA+wantB {
			t.Fatalf("%s: expected counts total %d, want %d", query, total, wantA+wantB)
		}

		// Each side's splits contribute exactly that side's cells.
		gA, err := BuildGraph(p, splitsA, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sideA int64
		for _, c := range gA.ExpectedCount {
			sideA += c
		}
		if sideA != wantA {
			t.Fatalf("%s: side A contributes %d points, want %d", query, sideA, wantA)
		}
	}
}

// TestRouteCountsMatchExecMap checks that the spill annotation a worker
// derives inside ExecMap is the geometric count BuildGraph plans from,
// per split and summed per keyblock, share replication included.
func TestRouteCountsMatchExecMap(t *testing.T) {
	for _, tc := range []struct {
		query  string
		a, b   func(coords.Coord) float64
		carved bool
	}{
		{"join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}", hotCorner, dense, false},
		{"join jsum a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", hotNoisy, thinNoisy, true},
	} {
		q := mustQuery(t, tc.query)
		splits := bandSplits(t, q.Input, 16)
		p, err := Build(q, Options{Reducers: 4, MaxSkew: 8}, funcReader{tc.a}, funcReader{tc.b}, splits, splits)
		if err != nil {
			t.Fatal(err)
		}
		if carved := len(p.shares) > 0; carved != tc.carved {
			t.Fatalf("%s: carved tiles = %t, want %t", tc.query, carved, tc.carved)
		}
		g, err := BuildGraph(p, splits, splits)
		if err != nil {
			t.Fatal(err)
		}
		annotated := make([]int64, len(p.Units))
		for side, fn := range []func(coords.Coord) float64{tc.a, tc.b} {
			for si, split := range splits {
				outs, _, err := ExecMap(p, side, funcReader{fn}, split, nil)
				if err != nil {
					t.Fatalf("side %d split %d: %v", side, si, err)
				}
				live, ok := split.Intersect(p.sideInput(side))
				if !ok {
					continue
				}
				want := make([]int64, len(p.Units))
				if _, err := routeCounts(p, side, live, nil, want); err != nil {
					t.Fatal(err)
				}
				for kb, o := range outs {
					annotated[kb] += o.SourceCount
					if o.SourceCount != want[kb] {
						t.Fatalf("%s side %d split %d kb %d: annotation %d, geometric %d",
							tc.query, side, si, kb, o.SourceCount, want[kb])
					}
				}
			}
		}
		for kb, n := range annotated {
			if n != g.ExpectedCount[kb] {
				t.Fatalf("%s kb %d: annotations sum to %d, planned %d", tc.query, kb, n, g.ExpectedCount[kb])
			}
		}
	}
}

// mapKey maps input key k to its intermediate key (SIDR §3, Area 2),
// writing into buf when it has the capacity; ok is false for a key
// outside the keyspace or in a strided extraction's inter-tile gap.
func mapKey(e coords.Extraction, k, buf coords.Coord) (kp coords.Coord, ok bool) {
	st := e.EffectiveStride()
	if len(k) != len(st) {
		return nil, false
	}
	kp = append(buf[:0], k...)
	for i := range kp {
		if k[i] < 0 || k[i]%st[i] >= e.Shape[i] {
			return kp, false
		}
		kp[i] = k[i] / st[i]
	}
	return kp, true
}

// slabContains reports whether c lies in s.
func slabContains(s coords.Slab, c coords.Coord) bool {
	_, err := s.Linearize(c)
	return err == nil
}
