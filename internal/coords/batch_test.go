package coords

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBatchesConcatenateToTheSlab: batches are bounded, and visiting
// their points batch by batch visits the slab's points in row-major
// order — so concatenated batch reads equal one read of the slab.
func TestBatchesConcatenateToTheSlab(t *testing.T) {
	for _, tc := range []struct {
		slab        Slab
		max         int64
		wantBatches int
	}{
		{MustSlab(NewCoord(3), NewShape(100)), 32, 4},                 // rank 1: ranges of the only dimension
		{MustSlab(NewCoord(0, 0, 0), NewShape(8, 256, 64)), 32768, 4}, // whole rows, two at a time
		{MustSlab(NewCoord(1, 2, 3), NewShape(4, 5, 6)), 1000, 1},     // fits in one
		{MustSlab(NewCoord(1, 2, 3), NewShape(4, 5, 6)), 30, 4},       // one row each
		{MustSlab(NewCoord(1, 2, 3), NewShape(4, 5, 6)), 13, 4 * 3},   // rows cut: two lines at a time
		{MustSlab(NewCoord(1, 2, 3), NewShape(4, 5, 6)), 4, 4 * 5 * 2},
		{MustSlab(NewCoord(1, 2, 3), NewShape(4, 5, 6)), 1, 120},
	} {
		var want, got []string
		tc.slab.Each(func(c Coord) bool { want = append(want, c.String()); return true })
		n := 0
		err := tc.slab.Batches(tc.max, func(b Slab) error {
			n++
			if b.Size() > tc.max {
				t.Fatalf("%v max %d: batch %v holds %d points", tc.slab, tc.max, b, b.Size())
			}
			b.Each(func(c Coord) bool { got = append(got, c.String()); return true })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.wantBatches {
			t.Errorf("%v max %d: %d batches, want %d", tc.slab, tc.max, n, tc.wantBatches)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v max %d: batches visit %v, slab %v", tc.slab, tc.max, got, want)
		}
	}
	stop := fmt.Errorf("stop")
	calls := 0
	err := MustSlab(NewCoord(0, 0), NewShape(4, 4)).Batches(4, func(Slab) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("error did not stop the iteration: err %v after %d calls", err, calls)
	}
}

// runs decomposes vals, the row-major values of batch, into runs: maximal
// stretches of an innermost line whose points map to one key of w.Box. It
// calls fn for each in row-major order with the key's cell, the row-major
// offset of the run's first point inside its tile, and the values. It is
// Lines cut at the batch's Spans, the per-run view the tests below hold
// the walk to.
func runs(w TileWalk, batch Slab, vals []float64, fn func(cell, off int64, run []float64) error) error {
	var buf [8]Span
	spans := w.Spans(batch, buf[:0])
	return w.Lines(batch, vals, func(base, off int64, line []float64) error {
		for _, sp := range spans {
			if err := fn(base+sp.Cell, off+sp.Off, line[sp.Lo:sp.Hi]); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestRunsMatchMapKeyPerPoint: over random geometries — strides with
// gaps, non-zero corners, boxes that clip — the runs the walk hands out cover
// exactly the points MapKey maps into the box, in row-major order, each
// with the cell of its key and its offset inside its tile — and
// CellPoints, computed from the geometry alone, counts them per cell.
func TestRunsMatchMapKeyPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		rank := 1 + rng.Intn(3)
		es, st := make(Shape, rank), make(Shape, rank)
		slab := Slab{Corner: make(Coord, rank), Shape: make(Shape, rank)}
		for d := 0; d < rank; d++ {
			es[d] = 1 + rng.Int63n(5)
			st[d] = es[d] + rng.Int63n(3)
			slab.Corner[d] = rng.Int63n(9)
			slab.Shape[d] = 1 + rng.Int63n(14)
		}
		e := MustExtraction(es, st)
		box, err := e.TileRange(slab)
		if err != nil {
			continue // the slab sits in stride gaps
		}
		// Clip the box at random so some mapped points fall outside it.
		for d := 0; d < rank; d++ {
			if box.Shape[d] > 1 && rng.Intn(2) == 0 {
				box.Corner[d]++
				box.Shape[d]--
			}
		}
		type hit struct {
			cell, off int64
			v         float64
		}
		var want, got []hit
		vals := make([]float64, 0, slab.Size())
		slab.Each(func(c Coord) bool {
			v := float64(len(vals))
			vals = append(vals, v)
			kp, ok := e.MapKey(c)
			if !ok || !box.Contains(kp) {
				return true
			}
			cell, _ := box.Linearize(kp)
			tile, _ := e.Tile(kp)
			off, _ := tile.Linearize(c)
			want = append(want, hit{cell, off, v})
			return true
		})
		w, err := e.Walk(box)
		if err != nil {
			t.Fatal(err)
		}
		// Walk the slab in small batches so lines are cut mid-tile too.
		pos := 0
		err = slab.Batches(1+rng.Int63n(40), func(b Slab) error {
			n := int(b.Size())
			defer func() { pos += n }()
			return runs(w, b, vals[pos:pos+n], func(cell, off int64, run []float64) error {
				if int64(len(run)) > es[rank-1] || len(run) == 0 {
					t.Fatalf("run of %d points under es %v", len(run), es)
				}
				for i, v := range run {
					got = append(got, hit{cell, off + int64(i), v})
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("es %v stride %v slab %v box %v:\n runs   %v\n points %v", es, st, slab, box, got, want)
		}
		perCell := make([]int64, box.Size())
		for _, h := range want {
			perCell[h.cell]++
		}
		counts, total := w.CellPoints(slab, make([]int64, 0, 3))
		if fmt.Sprint(counts) != fmt.Sprint(perCell) || total != int64(len(want)) {
			t.Fatalf("es %v stride %v slab %v box %v: CellPoints %v (total %d), points per cell %v (total %d)", es, st, slab, box, counts, total, perCell, len(want))
		}
	}
}

// TestLinesMatchRuns: over 2 000 random geometries — rank 1–4, stride
// gaps, negative and off-grid corners, partial trailing tiles, boxes
// clipped by a keyspace, batches that cut lines mid-tile — folding every
// line Lines hands out through its batch's Spans gives each cell the sum
// and count of the points MapKey sends to it. Both fold in row-major
// order, so the sums agree by Float64bits.
func TestLinesMatchRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for checked := 0; checked < 2000; {
		rank := 1 + rng.Intn(4)
		es, st := make(Shape, rank), make(Shape, rank)
		slab := Slab{Corner: make(Coord, rank), Shape: make(Shape, rank)}
		space := Slab{Corner: make(Coord, rank), Shape: make(Shape, rank)}
		for d := 0; d < rank; d++ {
			es[d] = 1 + rng.Int63n(5)
			st[d] = es[d] + rng.Int63n(3)
			slab.Corner[d] = rng.Int63n(16) - 5
			slab.Shape[d] = 1 + rng.Int63n(9)
			space.Corner[d] = rng.Int63n(2)
			space.Shape[d] = 1 + rng.Int63n(5)
		}
		if rng.Intn(3) == 0 { // long innermost lines: many tiles each
			slab.Shape[rank-1] = 1 + rng.Int63n(70)
			space.Shape[rank-1] = 1 + rng.Int63n(25)
		}
		e := MustExtraction(es, st)
		tiles, err := e.TileRange(slab)
		if err != nil {
			continue // the slab sits in stride gaps
		}
		box, ok := tiles.Intersect(space)
		if !ok {
			continue
		}
		checked++
		wantSum, wantN := make([]float64, box.Size()), make([]int64, box.Size())
		vals := make([]float64, 0, slab.Size())
		slab.Each(func(c Coord) bool {
			v := rng.NormFloat64() * 1e3
			vals = append(vals, v)
			if kp, ok := e.MapKey(c); ok && box.Contains(kp) {
				cell, _ := box.Linearize(kp)
				wantSum[cell] += v
				wantN[cell]++
			}
			return true
		})
		w, err := e.Walk(box)
		if err != nil {
			t.Fatal(err)
		}
		gotSum, gotN := make([]float64, box.Size()), make([]int64, box.Size())
		pos := int64(0)
		err = slab.Batches(1+rng.Int63n(40), func(b Slab) error {
			spans := w.Spans(b, nil)
			defer func() { pos += b.Size() }()
			return w.Lines(b, vals[pos:pos+b.Size()], func(base, _ int64, line []float64) error {
				for _, sp := range spans {
					for _, v := range line[sp.Lo:sp.Hi] {
						gotSum[base+sp.Cell] += v
						gotN[base+sp.Cell]++
					}
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := range wantSum {
			if math.Float64bits(gotSum[c]) != math.Float64bits(wantSum[c]) || gotN[c] != wantN[c] {
				t.Fatalf("es %v stride %v slab %v box %v cell %d: lines fold (%v, %d), points (%v, %d)",
					es, st, slab, box, c, gotSum[c], gotN[c], wantSum[c], wantN[c])
			}
		}
	}
}

func TestRunsRejectsMismatchedBatch(t *testing.T) {
	e := MustExtraction(NewShape(2, 2), nil)
	w, err := e.Walk(MustSlab(NewCoord(0, 0), NewShape(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	none := func(int64, int64, []float64) error { return nil }
	if err := runs(w, MustSlab(NewCoord(0), NewShape(4)), make([]float64, 4), none); err != ErrRankMismatch {
		t.Fatalf("rank-1 batch: err %v, want ErrRankMismatch", err)
	}
	if err := runs(w, MustSlab(NewCoord(0, 0), NewShape(2, 2)), make([]float64, 3), none); err == nil {
		t.Fatal("short value slice accepted")
	}
	line := func(int64, int64, []float64) error { return nil }
	if err := w.Lines(MustSlab(NewCoord(0), NewShape(4)), make([]float64, 4), line); err != ErrRankMismatch {
		t.Fatalf("Lines, rank-1 batch: err %v, want ErrRankMismatch", err)
	}
	if err := w.Lines(MustSlab(NewCoord(0, 0), NewShape(2, 2)), make([]float64, 3), line); err == nil {
		t.Fatal("Lines: short value slice accepted")
	}
	if spans := w.Spans(MustSlab(NewCoord(0), NewShape(4)), nil); len(spans) != 0 {
		t.Fatalf("rank-1 batch: spans %v, want none", spans)
	}
	if _, err := e.Walk(MustSlab(NewCoord(0), NewShape(2))); err != ErrRankMismatch {
		t.Fatalf("rank-1 box: err %v, want ErrRankMismatch", err)
	}
}

func TestKeyBox(t *testing.T) {
	e := MustExtraction(NewShape(2, 3), NewShape(5, 3))
	space := MustSlab(NewCoord(0, 0), NewShape(4, 2))
	box := e.KeyBox(MustSlab(NewCoord(4, 2), NewShape(8, 4)), space)
	if !box.Equal(MustSlab(NewCoord(1, 0), NewShape(2, 2))) {
		t.Fatalf("KeyBox = %v", box)
	}
	// Rows 2–4 lie in the gap between tile rows: no key, zero extents.
	if box := e.KeyBox(MustSlab(NewCoord(2, 0), NewShape(3, 6)), space); box.Size() != 0 || box.Rank() != 2 {
		t.Fatalf("all-gap slab: KeyBox = %v", box)
	}
	// Tiles outside the keyspace are clipped away.
	if box := e.KeyBox(MustSlab(NewCoord(20, 0), NewShape(2, 6)), space); box.Size() != 0 {
		t.Fatalf("slab beyond the keyspace: KeyBox = %v", box)
	}
}
