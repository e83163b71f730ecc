package coords

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSlabValidation(t *testing.T) {
	if _, err := NewSlab(NewCoord(0, 0), NewShape(2)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := NewSlab(NewCoord(0), NewShape(0)); err == nil {
		t.Fatal("invalid shape accepted")
	}
	s, err := NewSlab(NewCoord(100, 0, 0), NewShape(20, 50, 50))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 50000 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestSlabEnd(t *testing.T) {
	s := MustSlab(NewCoord(1, 2), NewShape(3, 4))
	if !s.End().Equal(NewCoord(4, 6)) {
		t.Fatalf("End = %v", s.End())
	}
}

func TestSlabContains(t *testing.T) {
	s := MustSlab(NewCoord(10, 10), NewShape(5, 5))
	for _, c := range []Coord{NewCoord(10, 10), NewCoord(14, 14), NewCoord(12, 13)} {
		if !s.Contains(c) {
			t.Errorf("should contain %v", c)
		}
	}
	for _, c := range []Coord{NewCoord(9, 10), NewCoord(15, 10), NewCoord(10, 15), NewCoord(10)} {
		if s.Contains(c) {
			t.Errorf("should not contain %v", c)
		}
	}
}

func TestSlabContainsSlab(t *testing.T) {
	outer := MustSlab(NewCoord(0, 0), NewShape(10, 10))
	inner := MustSlab(NewCoord(2, 3), NewShape(4, 4))
	if !outer.ContainsSlab(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.ContainsSlab(outer) {
		t.Fatal("inner should not contain outer")
	}
	edge := MustSlab(NewCoord(6, 6), NewShape(4, 4))
	if !outer.ContainsSlab(edge) {
		t.Fatal("edge-flush slab should be contained")
	}
	over := MustSlab(NewCoord(6, 6), NewShape(5, 4))
	if outer.ContainsSlab(over) {
		t.Fatal("overflowing slab should not be contained")
	}
}

func TestSlabIntersect(t *testing.T) {
	a := MustSlab(NewCoord(0, 0), NewShape(4, 4))
	b := MustSlab(NewCoord(2, 2), NewShape(4, 4))
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := MustSlab(NewCoord(2, 2), NewShape(2, 2))
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	c := MustSlab(NewCoord(4, 0), NewShape(2, 2))
	if _, ok := a.Intersect(c); ok {
		t.Fatal("touching slabs must not intersect")
	}
}

// overlaps reports whether s and t share at least one point.
func overlaps(s, t Slab) bool {
	_, ok := s.Intersect(t)
	return ok
}

func TestSlabEachRowMajor(t *testing.T) {
	s := MustSlab(NewCoord(1, 1), NewShape(2, 2))
	var got []Coord
	s.Each(func(c Coord) bool {
		got = append(got, c)
		return true
	})
	want := []Coord{NewCoord(1, 1), NewCoord(1, 2), NewCoord(2, 1), NewCoord(2, 2)}
	if len(got) != len(want) {
		t.Fatalf("visited %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSlabEachEarlyStop(t *testing.T) {
	s := MustSlab(NewCoord(0), NewShape(100))
	n := 0
	s.Each(func(Coord) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d points, want 5", n)
	}
}

func TestSlabLinearizeRoundTrip(t *testing.T) {
	s := MustSlab(NewCoord(5, 7), NewShape(3, 4))
	for off := int64(0); off < s.Size(); off++ {
		c, err := s.Delinearize(off)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Contains(c) {
			t.Fatalf("Delinearize(%d) = %v not inside slab", off, c)
		}
		back, err := s.Linearize(c)
		if err != nil {
			t.Fatal(err)
		}
		if back != off {
			t.Fatalf("round trip %d -> %v -> %d", off, c, back)
		}
	}
}

func TestSlabSplitDim(t *testing.T) {
	s := MustSlab(NewCoord(0, 0), NewShape(10, 4))
	parts, err := s.SplitDim(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	var total int64
	for i, p := range parts {
		total += p.Size()
		if !s.ContainsSlab(p) {
			t.Fatalf("part %d %v escapes parent", i, p)
		}
		for j := i + 1; j < len(parts); j++ {
			if overlaps(p, parts[j]) {
				t.Fatalf("parts %d and %d overlap", i, j)
			}
		}
	}
	if total != s.Size() {
		t.Fatalf("parts cover %d points, want %d", total, s.Size())
	}
	if !slices.Equal(parts[3].Shape, NewShape(1, 4)) {
		t.Fatalf("last part shape = %v, want {1, 4}", parts[3].Shape)
	}
}

func TestSlabSplitDimErrors(t *testing.T) {
	s := MustSlab(NewCoord(0), NewShape(10))
	if _, err := s.SplitDim(1, 2); err == nil {
		t.Fatal("bad dim accepted")
	}
	if _, err := s.SplitDim(0, 0); err == nil {
		t.Fatal("zero chunk accepted")
	}
}

func TestQuickIntersectCommutativeAndContained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		mk := func() Slab {
			c := make(Coord, rank)
			s := make(Shape, rank)
			for i := range c {
				c[i] = r.Int63n(10)
				s[i] = 1 + r.Int63n(10)
			}
			return Slab{Corner: c, Shape: s}
		}
		a, b := mk(), mk()
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return i1.Equal(i2) && a.ContainsSlab(i1) && b.ContainsSlab(i1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSplitDimPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		c := make(Coord, rank)
		s := make(Shape, rank)
		for i := range c {
			c[i] = r.Int63n(5)
			s[i] = 1 + r.Int63n(12)
		}
		slab := Slab{Corner: c, Shape: s}
		dim := r.Intn(rank)
		chunk := 1 + r.Int63n(6)
		parts, err := slab.SplitDim(dim, chunk)
		if err != nil {
			return false
		}
		var total int64
		for i, p := range parts {
			total += p.Size()
			if !slab.ContainsSlab(p) {
				return false
			}
			for j := i + 1; j < len(parts); j++ {
				if overlaps(p, parts[j]) {
					return false
				}
			}
		}
		return total == slab.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// End returns the exclusive upper corner (corner + shape).
func (s Slab) End() Coord {
	out := make(Coord, len(s.Corner))
	for i := range s.Corner {
		out[i] = s.Corner[i] + s.Shape[i]
	}
	return out
}

// Contains reports whether the point c lies within the slab.
func (s Slab) Contains(c Coord) bool {
	if len(c) != len(s.Corner) {
		return false
	}
	for i := range c {
		if c[i] < s.Corner[i] || c[i] >= s.Corner[i]+s.Shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two slabs describe the same region.
func (s Slab) Equal(t Slab) bool {
	return s.Corner.Equal(t.Corner) && slices.Equal(s.Shape, t.Shape)
}
