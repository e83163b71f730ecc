package coords

import (
	"context"
	"fmt"
)

// RecordReader is the record-reader contract: the one way a data source
// hands values to a scan (Map tasks, join sampling, index builds). Values
// move a slab at a time, never one callback per point. Readers must be
// safe for concurrent calls on distinct slabs.
type RecordReader interface {
	// ReadSlabInto fills dst with the slab's values in row-major order —
	// value i belongs to the slab's i-th point — and returns
	// dst[:slab.Size()], allocating only when dst's capacity is short.
	ReadSlabInto(slab Slab, dst []float64) ([]float64, error)
}

// BatchPoints is the batch size scans read at: 16 Ki values (128 KiB)
// stay cache-resident while amortising a read call over whole rows.
// Doubling it measured no faster and a megabyte more resident memory.
const BatchPoints = 16 << 10

// Batches calls fn with consecutive sub-slabs of s holding at most
// maxPoints points each, in an order and of a shape such that
// concatenating their row-major values yields s's: whole trailing
// dimensions while they fit, then a range of the next dimension out (for
// most inputs, a few whole leading-dimension rows). The slab passed to fn
// is overwritten between calls; fn must not retain it.
func (s Slab) Batches(maxPoints int64, fn func(Slab) error) error {
	if s.Rank() == 0 || s.Size() == 0 {
		return nil
	}
	// d is the dimension batches cut: every dimension after it is taken
	// whole, every dimension before it one index at a time.
	d, inner := s.Rank()-1, int64(1)
	for d > 0 && inner*s.Shape[d] <= maxPoints {
		inner *= s.Shape[d]
		d--
	}
	step := max(1, maxPoints/inner)
	batch := s.Clone()
	for i := 0; i < d; i++ {
		batch.Shape[i] = 1
	}
	outer := Slab{Corner: s.Corner[:d], Shape: s.Shape[:d]}
	for {
		for off := int64(0); off < s.Shape[d]; off += step {
			batch.Corner[d] = s.Corner[d] + off
			batch.Shape[d] = min(step, s.Shape[d]-off)
			if err := fn(batch); err != nil {
				return err
			}
		}
		if !outer.Advance(batch.Corner[:d]) {
			return nil
		}
	}
}

// ReadBatches scans s through r a batch of at most BatchPoints values at
// a time: it reads each batch into buf — grown once, then reused — and
// hands fn the batch with its values. A non-nil ctx is checked before
// every read. The buffer is returned for the next scan.
func ReadBatches(ctx context.Context, r RecordReader, s Slab, buf []float64, fn func(batch Slab, vals []float64) error) ([]float64, error) {
	err := s.Batches(BatchPoints, func(batch Slab) (err error) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if buf, err = r.ReadSlabInto(batch, buf); err != nil {
			return err
		}
		return fn(batch, buf)
	})
	return buf, err
}

// TileWalk is the line decomposition of a row-major scan under an
// extraction shape. The shape maps K to K' deterministically, so along
// the innermost dimension the key boundaries are known before a value is
// read: a scan resolves the leading K' coordinates once per innermost
// line (Lines) and the innermost tiles, the stride gaps and the clipping
// once per batch (Spans). Keys are addressed as cells, row-major offsets
// inside Box.
type TileWalk struct {
	// Box is the slab of K' keys the walk keeps; points mapping outside
	// it are skipped.
	Box Slab

	shape, stride Shape
}

// Walk returns the line decomposition of e that keeps the keys in box.
func (e Extraction) Walk(box Slab) (TileWalk, error) {
	if e.Rank() == 0 || e.Rank() > MaxRank || box.Rank() != e.Rank() {
		return TileWalk{}, ErrRankMismatch
	}
	return TileWalk{Box: box, shape: e.Shape, stride: e.EffectiveStride()}, nil
}

// Span is the stretch of every innermost line of a batch that maps to one
// innermost tile: line[Lo:Hi] belongs to the key whose cell is the line's
// base plus Cell, and its first point lies Off points into the tile's
// innermost extent.
type Span struct{ Cell, Off, Lo, Hi int64 }

// Spans appends to dst, in line order, the spans every line of batch is
// cut into: the innermost tiles of Box the lines reach, each clipped by
// its stride gap, by the batch and by the non-negative coordinates. They
// name distinct cells and are never empty. A batch of another rank than
// the walk has none.
func (w TileWalk) Spans(batch Slab, dst []Span) []Span {
	last := len(w.stride) - 1
	if batch.Rank() != last+1 {
		return dst
	}
	st, es, boxLo := w.stride[last], w.shape[last], w.Box.Corner[last]
	x0, end := batch.Corner[last], batch.Corner[last]+batch.Shape[last]
	tHi := min((end-1)/st+1, boxLo+w.Box.Shape[last])
	for t := max(max(x0, 0)/st, boxLo); t < tHi; t++ {
		s := t * st
		if a, b := max(s, x0), min(s+es, end); a < b { // else the line starts in this tile's gap
			dst = append(dst, Span{Cell: t - boxLo, Off: a - s, Lo: a - x0, Hi: b - x0})
		}
	}
	return dst
}

// Lines calls fn, in row-major order, for every innermost line of batch
// whose leading coordinates map into Box, with the line's values, its
// base — the cell of the first key of the line's row of Box — and its
// off — the row-major offset inside a tile of the line's leading
// coordinates. A span sp of the batch then holds the key base+sp.Cell,
// and its points start off+sp.Off into the tile. vals are the row-major
// values of batch.
func (w TileWalk) Lines(batch Slab, vals []float64, fn func(base, off int64, line []float64) error) error {
	last := len(w.stride) - 1
	if batch.Rank() != last+1 {
		return ErrRankMismatch
	}
	if int64(len(vals)) != batch.Size() {
		return fmt.Errorf("coords: %d values for a batch of %d points", len(vals), batch.Size())
	}
	lineLen := batch.Shape[last]
	var leadBuf [MaxRank]int64 // on the stack: Lines allocates nothing
	lead := Coord(leadBuf[:last])
	copy(lead, batch.Corner)
	lines := Slab{Corner: batch.Corner[:last], Shape: batch.Shape[:last]}
	for pos := int64(0); pos < int64(len(vals)); pos += lineLen {
		base, off, ok := int64(0), int64(0), true
		for d := 0; ok && d < last; d++ {
			t := lead[d] / w.stride[d]
			in, rel := lead[d]-t*w.stride[d], t-w.Box.Corner[d]
			// Unsigned compares fold the negative cases into the bounds.
			ok = uint64(in) < uint64(w.shape[d]) && uint64(rel) < uint64(w.Box.Shape[d])
			base = base*w.Box.Shape[d] + rel
			off = off*w.shape[d] + in
		}
		if ok {
			if err := fn(base*w.Box.Shape[last], off*w.shape[last], vals[pos:pos+lineLen]); err != nil {
				return err
			}
		}
		lines.Advance(lead)
	}
	return nil
}

// CellPoints counts, for every key of Box in cell order, the points of
// live that Lines and Spans hand to it: per dimension, the overlap of the
// key's tile [t·stride, t·stride+shape) with live (and with the
// non-negative coordinates), multiplied over dimensions. It writes the
// counts into dst — grown only when its capacity is short — and returns
// them with their total, so a scan can size per-key storage before it
// reads a value.
func (w TileWalk) CellPoints(live Slab, dst []int64) ([]int64, int64) {
	n := w.Box.Size()
	if int64(cap(dst)) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst, 0
	}
	overlap := func(d int, t int64) int64 {
		lo := max(max(t*w.stride[d], live.Corner[d]), 0)
		hi := min(t*w.stride[d]+w.shape[d], live.Corner[d]+live.Shape[d])
		return max(hi-lo, 0)
	}
	last := len(w.stride) - 1
	var leadBuf [MaxRank]int64
	lead := Coord(leadBuf[:last])
	copy(lead, w.Box.Corner)
	lines := Slab{Corner: w.Box.Corner[:last], Shape: w.Box.Shape[:last]}
	tLo, tHi := w.Box.Corner[last], w.Box.Corner[last]+w.Box.Shape[last]
	var total int64
	for cell := dst; len(cell) > 0; lines.Advance(lead) {
		outer := int64(1)
		for d, t := range lead {
			outer *= overlap(d, t)
		}
		for t := tLo; t < tHi; t++ {
			cell[0] = outer * overlap(last, t)
			total += cell[0]
			cell = cell[1:]
		}
	}
	return dst, total
}
