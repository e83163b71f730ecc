package coords

import (
	"fmt"
)

// Extraction is the paper's extraction shape (§2.4.2): a tiling of the
// input keyspace K where each tile instance corresponds to one key in the
// intermediate keyspace K'. An optional Stride (≥ Shape elementwise)
// describes strided access — regularly spaced tiles with gaps between
// them; a zero-value Stride means dense tiling (stride == shape).
type Extraction struct {
	Shape  Shape
	Stride Shape // optional; nil means Stride == Shape
}

// NewExtraction validates and builds an extraction shape. stride may be
// nil for dense tiling; when given it must match rank and be >= shape in
// every dimension.
func NewExtraction(shape, stride Shape) (Extraction, error) {
	if err := shape.Validate(); err != nil {
		return Extraction{}, err
	}
	if stride != nil {
		if len(stride) != len(shape) {
			return Extraction{}, ErrRankMismatch
		}
		if err := stride.Validate(); err != nil {
			return Extraction{}, err
		}
		for i := range stride {
			if stride[i] < shape[i] {
				return Extraction{}, fmt.Errorf("coords: stride %v smaller than shape %v in dim %d", stride, shape, i)
			}
		}
	}
	e := Extraction{Shape: shape.Clone()}
	if stride != nil {
		e.Stride = stride.Clone()
	}
	return e, nil
}

// Rank returns the extraction shape's dimensionality.
func (e Extraction) Rank() int { return len(e.Shape) }

// EffectiveStride returns the stride actually used for tiling: the
// explicit stride when present, otherwise the shape itself.
func (e Extraction) EffectiveStride() Shape {
	if e.Stride != nil {
		return e.Stride
	}
	return e.Shape
}

// Tile returns the slab in K covered by the tile for intermediate key kp.
func (e Extraction) Tile(kp Coord) (Slab, error) {
	st := e.EffectiveStride()
	if len(kp) != len(st) {
		return Slab{}, ErrRankMismatch
	}
	corner := make(Coord, len(kp))
	for i := range kp {
		if kp[i] < 0 {
			return Slab{}, fmt.Errorf("coords: negative intermediate key %v", kp)
		}
		corner[i] = kp[i] * st[i]
	}
	return Slab{Corner: corner, Shape: e.Shape.Clone()}, nil
}

// TileRange returns the slab of intermediate keys (in K') whose tiles
// overlap the input-space slab in (in K). This is the core of SIDR's
// split→keyblock dependency computation: the set of K' keys an input
// split contributes to is exactly TileRange(split).
//
// For strided extractions a tile overlapping `in` only through its gap is
// still included when the slab's extent covers the tile's data region;
// tiles whose data region lies wholly outside `in` are excluded.
func (e Extraction) TileRange(in Slab) (Slab, error) {
	st := e.EffectiveStride()
	if in.Rank() != len(st) {
		return Slab{}, ErrRankMismatch
	}
	corner := make(Coord, in.Rank())
	shape := make(Shape, in.Rank())
	for i := range corner {
		lo := in.Corner[i]
		hi := in.Corner[i] + in.Shape[i] - 1 // inclusive
		first := lo / st[i]
		if lo%st[i] >= e.Shape[i] {
			// The slab starts inside a gap: the first overlapping tile
			// is the next one.
			first++
		}
		// Tile hi/st always overlaps: its data region starts at or below
		// hi, and the `first` adjustment already excluded tiles whose data
		// region lies entirely below lo.
		last := hi / st[i]
		if last < first {
			return Slab{}, fmt.Errorf("coords: slab %v overlaps no tiles of %v", in, e)
		}
		corner[i] = first
		shape[i] = last - first + 1
	}
	return Slab{Corner: corner, Shape: shape}, nil
}

// KeyBox returns the box of intermediate keys the points of in map to,
// clipped to space: TileRange(in) ∩ space. A scan of in can touch no
// other key, so the box bounds its accumulation state before it reads a
// value. The box has zero extents when no point of in maps into space.
func (e Extraction) KeyBox(in, space Slab) Slab {
	if tiles, err := e.TileRange(in); err == nil {
		if box, ok := tiles.Intersect(space); ok {
			return box
		}
	}
	return Slab{Corner: make(Coord, e.Rank()), Shape: make(Shape, e.Rank())}
}

// String renders the extraction shape (with stride when present).
func (e Extraction) String() string {
	if e.Stride == nil {
		return fmt.Sprintf("es%s", e.Shape)
	}
	return fmt.Sprintf("es%s stride%s", e.Shape, e.Stride)
}
