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
		if u.Shared() {
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
// barrier relies on: summed expected counts equal each side's live cell
// count, with replicated light-side cells counted once per share.
func TestGraphCountsCoverInputs(t *testing.T) {
	q := mustQuery(t, "join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}")
	splits := bandSplits(t, q.Input, 16)

	// Uniform loads: no shares, so counts must cover both inputs exactly.
	p, err := Build(q, Options{Reducers: 4}, funcReader{dense}, funcReader{dense}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(p, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range g.ExpectedCount {
		total += c
	}
	want := 2 * q.Input.Size()
	if total != want {
		t.Fatalf("expected counts total %d, want %d", total, want)
	}

	// Each side's splits contribute exactly that side's cells.
	var sideA int64
	for i := 0; i < p.SideBoundary; i++ {
		sideA += g.SplitPoints[i]
	}
	if sideA != q.Input.Size() {
		t.Fatalf("side A contributes %d points, want %d", sideA, q.Input.Size())
	}
}

// TestRouteCountsMatchExecMap checks that the geometric spill annotation
// a worker derives (RouteCounts inside ExecMap) matches the plan-time
// expectation per split, share replication included.
func TestRouteCountsMatchExecMap(t *testing.T) {
	q := mustQuery(t, "join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}")
	splits := bandSplits(t, q.Input, 16)
	p, err := Build(q, Options{Reducers: 4, MaxSkew: 8}, funcReader{hotCorner}, funcReader{dense}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	for side, fn := range map[int]func(coords.Coord) float64{0: hotCorner, 1: dense} {
		for si, split := range splits {
			outs, _, err := ExecMap(p, side, funcReader{fn}, split, nil)
			if err != nil {
				t.Fatalf("side %d split %d: %v", side, si, err)
			}
			live, ok := split.Intersect(p.SideInput(side))
			if !ok {
				continue
			}
			counts, err := RouteCounts(p, side, live)
			if err != nil {
				t.Fatal(err)
			}
			for kb, o := range outs {
				if o.SourceCount != counts[kb] {
					t.Fatalf("side %d split %d kb %d: annotation %d, geometric %d",
						side, si, kb, o.SourceCount, counts[kb])
				}
			}
		}
	}
}
