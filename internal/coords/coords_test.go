package coords

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewCoordCopies(t *testing.T) {
	xs := []int64{1, 2, 3}
	c := NewCoord(xs...)
	xs[0] = 99
	if c[0] != 1 {
		t.Fatalf("NewCoord aliased its input: %v", c)
	}
}

// sub returns c - d elementwise: add's inverse, which only this test
// needs.
func (c Coord) sub(d Coord) (Coord, error) {
	if len(c) != len(d) {
		return nil, ErrRankMismatch
	}
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] - d[i]
	}
	return out, nil
}

func TestCoordAddSub(t *testing.T) {
	a := NewCoord(1, 2, 3)
	b := NewCoord(10, 20, 30)
	sum, err := a.add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(NewCoord(11, 22, 33)) {
		t.Fatalf("Add = %v", sum)
	}
	diff, err := sum.sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a) {
		t.Fatalf("Sub = %v, want %v", diff, a)
	}
}

func TestCoordAddRankMismatch(t *testing.T) {
	if _, err := NewCoord(1).add(NewCoord(1, 2)); err == nil {
		t.Fatal("expected rank mismatch error")
	}
	if _, err := NewCoord(1).sub(NewCoord(1, 2)); err == nil {
		t.Fatal("expected rank mismatch error")
	}
}

func TestCoordCompare(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{NewCoord(0, 0), NewCoord(0, 0), 0},
		{NewCoord(0, 1), NewCoord(0, 2), -1},
		{NewCoord(1, 0), NewCoord(0, 9), 1},
		{NewCoord(1), NewCoord(1, 0), -1},
		{NewCoord(1, 0), NewCoord(1), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestShapeValidate(t *testing.T) {
	if err := NewShape(1, 2, 3).Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if err := NewShape(1, 0, 3).Validate(); err == nil {
		t.Fatal("zero extent accepted")
	}
	if err := NewShape(-1).Validate(); err == nil {
		t.Fatal("negative extent accepted")
	}
	if err := (Shape{}).Validate(); err == nil {
		t.Fatal("empty shape accepted")
	}
	big := make(Shape, MaxRank+1)
	for i := range big {
		big[i] = 1
	}
	if err := big.Validate(); err == nil {
		t.Fatal("over-rank shape accepted")
	}
}

func TestShapeSize(t *testing.T) {
	if got := NewShape(20, 50, 50).Size(); got != 50000 {
		t.Fatalf("Size = %d, want 50000", got)
	}
	if got := (Shape{}).Size(); got != 0 {
		t.Fatalf("empty Size = %d, want 0", got)
	}
}

func TestLinearizeDelinearizeRoundTrip(t *testing.T) {
	s := NewShape(3, 4, 5)
	for off := int64(0); off < s.Size(); off++ {
		c, err := s.delinearize(off)
		if err != nil {
			t.Fatal(err)
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

func TestLinearizeRowMajorOrder(t *testing.T) {
	// Row-major means the last dimension varies fastest.
	s := NewShape(2, 3)
	off, err := s.Linearize(NewCoord(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if off != 3 {
		t.Fatalf("Linearize({1,0}) = %d, want 3", off)
	}
}

func TestLinearizeOutOfBounds(t *testing.T) {
	s := NewShape(2, 2)
	if _, err := s.Linearize(NewCoord(2, 0)); err == nil {
		t.Fatal("out-of-bounds accepted")
	}
	if _, err := s.Linearize(NewCoord(0, -1)); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := s.Linearize(NewCoord(0)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := s.delinearize(4); err == nil {
		t.Fatal("offset == size accepted")
	}
	if _, err := s.delinearize(-1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestCeilFloorDiv(t *testing.T) {
	// The paper's example: {365, 250, 200} with extraction {7, 5, 1}
	// keeping partial tiles gives {53, 50, 200}; discarding the 365th day
	// gives {52, 50, 200}.
	ks := NewShape(365, 250, 200)
	es := NewShape(7, 5, 1)
	ceil, err := ks.CeilDiv(es)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ceil, NewShape(53, 50, 200)) {
		t.Fatalf("CeilDiv = %v", ceil)
	}
	floor, err := ks.FloorDiv(es)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(floor, NewShape(52, 50, 200)) {
		t.Fatalf("FloorDiv = %v", floor)
	}
}

func TestCeilDivErrors(t *testing.T) {
	if _, err := NewShape(4).CeilDiv(NewShape(2, 2)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := NewShape(4).CeilDiv(NewShape(0)); err == nil {
		t.Fatal("invalid divisor accepted")
	}
}

func TestParseCoordShape(t *testing.T) {
	c, err := ParseCoord("{100, 0, 0}")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(NewCoord(100, 0, 0)) {
		t.Fatalf("ParseCoord = %v", c)
	}
	s, err := ParseShape("20,50,50")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s, NewShape(20, 50, 50)) {
		t.Fatalf("ParseShape = %v", s)
	}
	if _, err := ParseShape("{1, 0}"); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := ParseCoord("{}"); err == nil {
		t.Fatal("empty coord accepted")
	}
	if _, err := ParseCoord("{a,b}"); err == nil {
		t.Fatal("non-numeric coord accepted")
	}
}

func TestStringFormats(t *testing.T) {
	if got := NewCoord(1, 2).String(); got != "{1, 2}" {
		t.Fatalf("Coord.String = %q", got)
	}
	if got := NewShape(3).String(); got != "{3}" {
		t.Fatalf("Shape.String = %q", got)
	}
}

// randomShape produces small random shapes for property tests.
func randomShape(r *rand.Rand, rank int) Shape {
	s := make(Shape, rank)
	for i := range s {
		s[i] = 1 + r.Int63n(7)
	}
	return s
}

func TestQuickLinearizeBijective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomShape(r, 1+r.Intn(4))
		seen := make(map[int64]bool)
		ok := true
		Slab{Corner: make(Coord, s.Rank()), Shape: s}.Each(func(c Coord) bool {
			off, err := s.Linearize(c)
			if err != nil || seen[off] || off < 0 || off >= s.Size() {
				ok = false
				return false
			}
			seen[off] = true
			return true
		})
		return ok && int64(len(seen)) == s.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCeilDivBound(t *testing.T) {
	// ceil(a/b)*b >= a and (ceil(a/b)-1)*b < a for all valid shapes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(4)
		a := randomShape(r, rank)
		b := randomShape(r, rank)
		c, err := a.CeilDiv(b)
		if err != nil {
			return false
		}
		for i := range c {
			if c[i]*b[i] < a[i] || (c[i]-1)*b[i] >= a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// CeilDiv returns the shape obtained by dividing each extent of s by the
// corresponding extent of es, rounding up. This is the K -> K' keyspace
// size computation from SIDR §3 (Area 3): the intermediate keyspace for a
// query over keyspace s with extraction shape es.
func (s Shape) CeilDiv(es Shape) (Shape, error) {
	if len(s) != len(es) {
		return nil, ErrRankMismatch
	}
	if err := es.Validate(); err != nil {
		return nil, err
	}
	out := make(Shape, len(s))
	for i := range s {
		out[i] = (s[i] + es[i] - 1) / es[i]
	}
	return out, nil
}

// FloorDiv returns the shape obtained by dividing each extent of s by es,
// rounding down; used when a query discards trailing partial tiles (the
// paper's "throw away the data from the 365-th day" case).
func (s Shape) FloorDiv(es Shape) (Shape, error) {
	if len(s) != len(es) {
		return nil, ErrRankMismatch
	}
	if err := es.Validate(); err != nil {
		return nil, err
	}
	out := make(Shape, len(s))
	for i := range s {
		out[i] = s[i] / es[i]
		if out[i] == 0 {
			out[i] = 1 // a query never has an empty output dimension
		}
	}
	return out, nil
}

// Contains reports whether c lies within the shape rooted at the origin.
func (s Shape) Contains(c Coord) bool {
	if len(s) != len(c) {
		return false
	}
	for i := range s {
		if c[i] < 0 || c[i] >= s[i] {
			return false
		}
	}
	return true
}
