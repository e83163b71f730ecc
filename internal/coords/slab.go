package coords

import (
	"fmt"
)

// Slab is a corner+shape region of a keyspace — the unit of work SciHadoop
// uses to describe both input splits and extraction-shape tiles (e.g.
// corner {100,0,0}, shape {20,50,50} is a 50,000-element box rooted at
// {100,0,0}).
type Slab struct {
	Corner Coord
	Shape  Shape
}

// NewSlab builds a slab and validates that corner and shape agree in rank
// and the shape is valid.
func NewSlab(corner Coord, shape Shape) (Slab, error) {
	if len(corner) != len(shape) {
		return Slab{}, ErrRankMismatch
	}
	if err := shape.Validate(); err != nil {
		return Slab{}, err
	}
	return Slab{Corner: corner.Clone(), Shape: shape.Clone()}, nil
}

// MustSlab is NewSlab that panics on error; for tests and package-level
// literals where the inputs are constants.
func MustSlab(corner Coord, shape Shape) Slab {
	s, err := NewSlab(corner, shape)
	if err != nil {
		panic(err)
	}
	return s
}

// Rank returns the slab's dimensionality.
func (s Slab) Rank() int { return len(s.Corner) }

// Size returns the number of points in the slab.
func (s Slab) Size() int64 { return s.Shape.Size() }

// Clone returns a deep copy of the slab.
func (s Slab) Clone() Slab {
	return Slab{Corner: s.Corner.Clone(), Shape: s.Shape.Clone()}
}

// ContainsSlab reports whether t lies entirely within s.
func (s Slab) ContainsSlab(t Slab) bool {
	if s.Rank() != t.Rank() {
		return false
	}
	for i := range s.Corner {
		if t.Corner[i] < s.Corner[i] || t.Corner[i]+t.Shape[i] > s.Corner[i]+s.Shape[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of s and t, and whether it is non-empty.
func (s Slab) Intersect(t Slab) (Slab, bool) {
	if s.Rank() != t.Rank() {
		return Slab{}, false
	}
	corner := make(Coord, s.Rank())
	shape := make(Shape, s.Rank())
	for i := range corner {
		lo := max(s.Corner[i], t.Corner[i])
		hi := min(s.Corner[i]+s.Shape[i], t.Corner[i]+t.Shape[i])
		if hi <= lo {
			return Slab{}, false
		}
		corner[i] = lo
		shape[i] = hi - lo
	}
	return Slab{Corner: corner, Shape: shape}, true
}

// String renders the slab as corner{..} shape{..}.
func (s Slab) String() string {
	return fmt.Sprintf("corner%s shape%s", s.Corner, s.Shape)
}

// Each calls fn for every point in the slab in row-major order. Iteration
// stops early if fn returns false. Every call receives a fresh Coord the
// callback may retain; per-record hot loops that do not retain it should
// use EachReuse.
func (s Slab) Each(fn func(Coord) bool) {
	s.EachReuse(func(c Coord) bool { return fn(c.Clone()) })
}

// EachReuse is Each without the per-point defensive copy: one Coord
// buffer is passed to every call and overwritten in place, so fn must
// neither retain nor mutate it.
func (s Slab) EachReuse(fn func(Coord) bool) {
	if s.Rank() == 0 || s.Size() == 0 {
		return
	}
	for cur := s.Corner.Clone(); fn(cur) && s.Advance(cur); {
	}
}

// Advance moves cur, a point of the slab, to its row-major successor in
// place (increment with carry) and reports whether there was one; after
// the last point cur is back at the corner. It takes the slab by
// pointer: inlined into a per-point loop, a value receiver copied the
// slab onto the stack at every step, and that copy's cost swung with the
// binary's layout (6 % and 50 % of a serve_mix set-up's CPU samples in
// two builds of the same loop, on a 2-vCPU VM).
func (s *Slab) Advance(cur Coord) bool {
	for i := len(cur) - 1; i >= 0; i-- {
		cur[i]++
		if cur[i] < s.Corner[i]+s.Shape[i] {
			return true
		}
		cur[i] = s.Corner[i]
	}
	return false
}

// Linearize maps a point inside the slab to its row-major offset relative
// to the slab's corner. It allocates nothing: this sits on the engine's
// per-record path (twice — key linearisation and partition lookup).
func (s Slab) Linearize(c Coord) (int64, error) {
	if len(c) != len(s.Corner) {
		return 0, ErrRankMismatch
	}
	var off int64
	for i := range c {
		rel := c[i] - s.Corner[i]
		if rel < 0 || rel >= s.Shape[i] {
			return 0, fmt.Errorf("coords: coordinate %v outside slab %v", c, s)
		}
		off = off*s.Shape[i] + rel
	}
	return off, nil
}

// Delinearize maps a row-major offset relative to the slab's corner back
// to an absolute coordinate.
func (s Slab) Delinearize(off int64) (Coord, error) {
	rel, err := s.Shape.delinearize(off)
	if err != nil {
		return nil, err
	}
	return rel.add(s.Corner)
}

// SplitDim splits the slab into pieces of at most chunk extent along
// dimension dim, preserving row-major ordering of the pieces. It is how
// split generators carve a dataset into contiguous units of work.
func (s Slab) SplitDim(dim int, chunk int64) ([]Slab, error) {
	if dim < 0 || dim >= s.Rank() {
		return nil, fmt.Errorf("coords: split dimension %d out of range for rank %d", dim, s.Rank())
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("coords: split chunk must be positive, got %d", chunk)
	}
	var out []Slab
	for off := int64(0); off < s.Shape[dim]; off += chunk {
		c := s.Corner.Clone()
		c[dim] += off
		sh := s.Shape.Clone()
		sh[dim] = min(chunk, s.Shape[dim]-off)
		out = append(out, Slab{Corner: c, Shape: sh})
	}
	return out, nil
}

// SplitDimCount splits the slab into exactly n contiguous pieces along
// dimension dim, as evenly as possible: the first (extent mod n) pieces
// get one extra unit. n must not exceed the dimension's extent.
func (s Slab) SplitDimCount(dim, n int) ([]Slab, error) {
	if dim < 0 || dim >= s.Rank() {
		return nil, fmt.Errorf("coords: split dimension %d out of range for rank %d", dim, s.Rank())
	}
	if n <= 0 || int64(n) > s.Shape[dim] {
		return nil, fmt.Errorf("coords: cannot split extent %d into %d pieces", s.Shape[dim], n)
	}
	base := s.Shape[dim] / int64(n)
	rem := s.Shape[dim] % int64(n)
	out := make([]Slab, 0, n)
	off := int64(0)
	for i := 0; i < n; i++ {
		size := base
		if int64(i) < rem {
			size++
		}
		c := s.Corner.Clone()
		c[dim] += off
		sh := s.Shape.Clone()
		sh[dim] = size
		out = append(out, Slab{Corner: c, Shape: sh})
		off += size
	}
	return out, nil
}
