package sidx

import (
	"fmt"
	"math"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/mapreduce"
)

// rowValue indexes a dataset whose every element equals its dim-0 row,
// so block stats are predictable exactly.
func rowValue(k coords.Coord) float64 { return float64(k[0]) }

func buildRowIndex(t *testing.T, shape coords.Shape, blocks int) *VarIndex {
	t.Helper()
	vi, err := BuildVar("t", shape, &mapreduce.FuncReader{Fn: rowValue}, BuildOptions{Blocks: blocks})
	if err != nil {
		t.Fatalf("BuildVar: %v", err)
	}
	return vi
}

func TestBuildVarStats(t *testing.T) {
	shape := coords.NewShape(100, 4)
	vi := buildRowIndex(t, shape, 0) // default 64 blocks

	if len(vi.Blocks) != 64 {
		t.Fatalf("got %d blocks, want 64", len(vi.Blocks))
	}
	var row, count int64
	for i, b := range vi.Blocks {
		if b.Row0 != row {
			t.Fatalf("block %d starts at row %d, want %d", i, b.Row0, row)
		}
		if b.Rows <= 0 {
			t.Fatalf("block %d has %d rows", i, b.Rows)
		}
		if b.Count != b.Rows*4 {
			t.Fatalf("block %d count %d, want %d", i, b.Count, b.Rows*4)
		}
		// Every element equals its row, so the band's min/max are its
		// first and last rows.
		if b.Min != float64(b.Row0) || b.Max != float64(b.Row0+b.Rows-1) {
			t.Fatalf("block %d range [%g, %g], want [%d, %d]", i, b.Min, b.Max, b.Row0, b.Row0+b.Rows-1)
		}
		row += b.Rows
		count += b.Count
	}
	if row != 100 {
		t.Fatalf("blocks cover %d rows, want 100", row)
	}
	if count != shape.Size() {
		t.Fatalf("blocks count %d elements, want %d", count, shape.Size())
	}
}

func TestBuildVarFewerRowsThanBlocks(t *testing.T) {
	vi := buildRowIndex(t, coords.NewShape(5, 2), 64)
	if len(vi.Blocks) != 5 {
		t.Fatalf("got %d blocks for 5 rows, want 5", len(vi.Blocks))
	}
}

func TestBuildVarReadError(t *testing.T) {
	bad := readerFunc(func(coords.Slab, []float64) ([]float64, error) {
		return nil, fmt.Errorf("boom")
	})
	if _, err := BuildVar("t", coords.NewShape(16, 2), bad, BuildOptions{Blocks: 4}); err == nil {
		t.Fatal("BuildVar swallowed the reader error")
	}
}

type readerFunc func(coords.Slab, []float64) ([]float64, error)

func (f readerFunc) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	return f(slab, dst)
}

func TestCovers(t *testing.T) {
	vi := buildRowIndex(t, coords.NewShape(32, 4), 8)
	in := func(corner, shape []int64) coords.Slab {
		return coords.Slab{Corner: coords.NewCoord(corner...), Shape: coords.NewShape(shape...)}
	}
	if !vi.Covers(in([]int64{0, 0}, []int64{32, 4})) {
		t.Fatal("full slab not covered")
	}
	if !vi.Covers(in([]int64{10, 1}, []int64{5, 2})) {
		t.Fatal("interior slab not covered")
	}
	if vi.Covers(in([]int64{0, 0}, []int64{33, 4})) {
		t.Fatal("covered a slab exceeding the indexed shape")
	}
	if vi.Covers(coords.Slab{Corner: coords.NewCoord(0), Shape: coords.NewShape(4)}) {
		t.Fatal("covered a rank-mismatched slab")
	}
	var nilVI *VarIndex
	if nilVI.Covers(in([]int64{0, 0}, []int64{1, 1})) {
		t.Fatal("nil index claimed coverage")
	}
}

// TestPruneSplitsConservative cross-checks pruning against a direct
// scan: a dropped split must contain no value satisfying the
// predicate, and kept splits must include every split that does.
func TestPruneSplitsConservative(t *testing.T) {
	shape := coords.NewShape(64, 8)
	// Hot band: rows [8, 16) carry +1000.
	fn := func(k coords.Coord) float64 {
		v := float64(k[0])
		if k[0] >= 8 && k[0] < 16 {
			v += 1000
		}
		return v
	}
	vi, err := BuildVar("t", shape, &mapreduce.FuncReader{Fn: fn}, BuildOptions{Blocks: 16})
	if err != nil {
		t.Fatalf("BuildVar: %v", err)
	}
	input := coords.Slab{Corner: coords.NewCoord(0, 0), Shape: shape}
	raw, err := mapreduce.GenerateSplits(input, input.Size()/16+1, nil, "", 8)
	if err != nil {
		t.Fatalf("GenerateSplits: %v", err)
	}
	splits := mapreduce.Slabs(raw)

	threshold := 500.0
	keepIdx := vi.PruneSplits(splits, func(min, max float64) bool { return max > threshold })
	kept := make(map[int]bool, len(keepIdx))
	for _, i := range keepIdx {
		kept[i] = true
	}
	if len(keepIdx) == 0 || len(keepIdx) == len(splits) {
		t.Fatalf("pruning had no effect: kept %d of %d", len(keepIdx), len(splits))
	}
	for i, s := range splits {
		matches := false
		r := &mapreduce.FuncReader{Fn: fn}
		vals, err := r.ReadSlabInto(s, nil)
		if err != nil {
			t.Fatalf("scan split %d: %v", i, err)
		}
		for _, v := range vals {
			if v > threshold {
				matches = true
			}
		}
		if matches && !kept[i] {
			t.Fatalf("split %d has matching values but was pruned", i)
		}
	}
}

func TestPruneKeepsUncoveredRows(t *testing.T) {
	vi := buildRowIndex(t, coords.NewShape(16, 2), 4)
	// A split reaching past the indexed rows must be kept even when no
	// block passes the predicate.
	beyond := coords.Slab{Corner: coords.NewCoord(12, 0), Shape: coords.NewShape(8, 2)}
	keep := vi.PruneSplits([]coords.Slab{beyond}, func(min, max float64) bool { return false })
	if len(keep) != 1 {
		t.Fatal("split reaching uncovered rows was pruned")
	}
	// Rank-mismatched splits are likewise never dropped.
	odd := coords.Slab{Corner: coords.NewCoord(0), Shape: coords.NewShape(4)}
	if keep := vi.PruneSplits([]coords.Slab{odd}, func(min, max float64) bool { return false }); len(keep) != 1 {
		t.Fatal("rank-mismatched split was pruned")
	}
}

func TestFingerprint(t *testing.T) {
	a := buildRowIndex(t, coords.NewShape(30, 2), 5)
	b := buildRowIndex(t, coords.NewShape(30, 2), 5)
	if a.Fingerprint() != b.Fingerprint() || a.Fingerprint() == 0 {
		t.Fatalf("identical indexes fingerprint %08x vs %08x", a.Fingerprint(), b.Fingerprint())
	}
	c, err := BuildVar("t", coords.NewShape(30, 2),
		&mapreduce.FuncReader{Fn: func(k coords.Coord) float64 { return math.Sqrt(float64(k[0] + 1)) }},
		BuildOptions{Blocks: 5})
	if err != nil {
		t.Fatalf("BuildVar: %v", err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different data, same fingerprint")
	}
}
