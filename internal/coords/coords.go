// Package coords provides the n-dimensional coordinate algebra that
// underpins every other subsystem in this repository: logical coordinates
// in a dataset's keyspace K, shapes, slabs (corner+shape regions, the unit
// SciHadoop uses to describe input splits), row-major linearisation, and
// the extraction-shape arithmetic SIDR uses to map the input keyspace K to
// the intermediate keyspace K'.
//
// All types are value-like: operations return new values and never mutate
// their receivers unless the method name says otherwise.
package coords

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxRank is the largest dimensionality supported. Scientific formats in
// practice use small ranks (NetCDF classic caps variables at 1024 but real
// datasets rarely exceed rank 6); a compact bound keeps array copies cheap.
const MaxRank = 16

// Coord is a point in an n-dimensional integer keyspace.
type Coord []int64

// Shape is the extent of a region along each dimension. All entries must
// be positive for a shape to be valid.
type Shape []int64

// ErrRankMismatch is returned when two values of different rank are
// combined.
var ErrRankMismatch = errors.New("coords: rank mismatch")

// errInvalidShape is returned when a shape has a non-positive extent.
var errInvalidShape = errors.New("coords: shape extents must be positive")

// NewCoord copies xs into a fresh Coord.
func NewCoord(xs ...int64) Coord {
	c := make(Coord, len(xs))
	copy(c, xs)
	return c
}

// NewShape copies xs into a fresh Shape.
func NewShape(xs ...int64) Shape {
	s := make(Shape, len(xs))
	copy(s, xs)
	return s
}

// Rank returns the dimensionality of the coordinate.
func (c Coord) Rank() int { return len(c) }

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and d are the same point.
func (c Coord) Equal(d Coord) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// add returns c + d elementwise.
func (c Coord) add(d Coord) (Coord, error) {
	if len(c) != len(d) {
		return nil, ErrRankMismatch
	}
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] + d[i]
	}
	return out, nil
}

// Less reports whether c precedes d in row-major (lexicographic) order.
func (c Coord) Less(d Coord) bool {
	n := len(c)
	if len(d) < n {
		n = len(d)
	}
	for i := 0; i < n; i++ {
		if c[i] != d[i] {
			return c[i] < d[i]
		}
	}
	return len(c) < len(d)
}

// Compare returns -1, 0, or +1 as c sorts before, equal to, or after d in
// row-major order. Coordinates of different rank compare by common prefix
// then rank.
func (c Coord) Compare(d Coord) int {
	n := len(c)
	if len(d) < n {
		n = len(d)
	}
	for i := 0; i < n; i++ {
		switch {
		case c[i] < d[i]:
			return -1
		case c[i] > d[i]:
			return 1
		}
	}
	switch {
	case len(c) < len(d):
		return -1
	case len(c) > len(d):
		return 1
	}
	return 0
}

// String renders the coordinate as {a, b, c}.
func (c Coord) String() string { return braceJoin([]int64(c)) }

// Rank returns the dimensionality of the shape.
func (s Shape) Rank() int { return len(s) }

// Clone returns an independent copy of s.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Validate returns errInvalidShape unless every extent is positive.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("%w: empty shape", errInvalidShape)
	}
	if len(s) > MaxRank {
		return fmt.Errorf("coords: rank %d exceeds MaxRank %d", len(s), MaxRank)
	}
	for i, x := range s {
		if x <= 0 {
			return fmt.Errorf("%w: dim %d has extent %d", errInvalidShape, i, x)
		}
	}
	return nil
}

// Size returns the number of points in the shape (the product of extents).
func (s Shape) Size() int64 {
	if len(s) == 0 {
		return 0
	}
	n := int64(1)
	for _, x := range s {
		n *= x
	}
	return n
}

// String renders the shape as {a, b, c}.
func (s Shape) String() string { return braceJoin([]int64(s)) }

// Linearize converts a coordinate within the shape (origin-rooted) to a
// row-major linear offset. It reports an error when c is out of bounds.
func (s Shape) Linearize(c Coord) (int64, error) {
	if len(s) != len(c) {
		return 0, ErrRankMismatch
	}
	var off int64
	for i := range s {
		if c[i] < 0 || c[i] >= s[i] {
			return 0, fmt.Errorf("coords: coordinate %v outside shape %v", c, s)
		}
		off = off*s[i] + c[i]
	}
	return off, nil
}

// delinearize converts a row-major linear offset back to a coordinate
// within the shape.
func (s Shape) delinearize(off int64) (Coord, error) {
	size := s.Size()
	if off < 0 || off >= size {
		return nil, fmt.Errorf("coords: offset %d outside shape %v (size %d)", off, s, size)
	}
	c := make(Coord, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		c[i] = off % s[i]
		off /= s[i]
	}
	return c, nil
}

// ParseCoord parses "{a, b, c}" or "a,b,c" into a Coord.
func ParseCoord(s string) (Coord, error) {
	xs, err := parseInt64List(s)
	if err != nil {
		return nil, fmt.Errorf("coords: parsing coordinate %q: %w", s, err)
	}
	return Coord(xs), nil
}

// ParseShape parses "{a, b, c}" or "a,b,c" into a Shape and validates it.
func ParseShape(s string) (Shape, error) {
	xs, err := parseInt64List(s)
	if err != nil {
		return nil, fmt.Errorf("coords: parsing shape %q: %w", s, err)
	}
	sh := Shape(xs)
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	return sh, nil
}

func parseInt64List(s string) ([]int64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

func braceJoin(xs []int64) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range xs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatInt(x, 10))
	}
	b.WriteByte('}')
	return b.String()
}
