package coords

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewExtractionValidation(t *testing.T) {
	if _, err := NewExtraction(NewShape(2, 2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExtraction(NewShape(0), nil); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := NewExtraction(NewShape(2, 2), NewShape(2)); err == nil {
		t.Fatal("stride rank mismatch accepted")
	}
	if _, err := NewExtraction(NewShape(3), NewShape(2)); err == nil {
		t.Fatal("stride < shape accepted")
	}
	if _, err := NewExtraction(NewShape(2), NewShape(5)); err != nil {
		t.Fatal("valid strided extraction rejected")
	}
}

func TestMapKeyPaperExample(t *testing.T) {
	// SIDR §3 Area 2: extraction shape {7,5,1}; key {157,34,82} in K maps
	// to {22,6,82} in K'.
	e := MustExtraction(NewShape(7, 5, 1), nil)
	kp, ok := e.MapKey(NewCoord(157, 34, 82))
	if !ok {
		t.Fatal("MapKey rejected in-tile key")
	}
	if !kp.Equal(NewCoord(22, 6, 82)) {
		t.Fatalf("MapKey = %v, want {22, 6, 82}", kp)
	}
}

func TestMapKeyDownUpSample(t *testing.T) {
	// Figure 6(b): a {2,2} extraction maps four K points to one K' point.
	e := MustExtraction(NewShape(2, 2), nil)
	want := NewCoord(1, 1)
	for _, k := range []Coord{NewCoord(2, 2), NewCoord(2, 3), NewCoord(3, 2), NewCoord(3, 3)} {
		kp, ok := e.MapKey(k)
		if !ok || !kp.Equal(want) {
			t.Fatalf("MapKey(%v) = %v, %v", k, kp, ok)
		}
	}
}

func TestMapKeyStridedGap(t *testing.T) {
	// Shape 2, stride 5: positions 0-1 belong to tile 0, 2-4 are gap,
	// 5-6 tile 1, ...
	e := MustExtraction(NewShape(2), NewShape(5))
	if kp, ok := e.MapKey(NewCoord(6)); !ok || !kp.Equal(NewCoord(1)) {
		t.Fatalf("MapKey(6) = %v, %v", kp, ok)
	}
	if _, ok := e.MapKey(NewCoord(3)); ok {
		t.Fatal("gap coordinate accepted")
	}
	if _, ok := e.MapKey(NewCoord(-1)); ok {
		t.Fatal("negative coordinate accepted")
	}
	if _, ok := e.MapKey(NewCoord(1, 1)); ok {
		t.Fatal("rank mismatch accepted")
	}
}

func TestTileInverseOfMapKey(t *testing.T) {
	e := MustExtraction(NewShape(3, 2), nil)
	tile, err := e.Tile(NewCoord(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := MustSlab(NewCoord(6, 10), NewShape(3, 2))
	if !tile.Equal(want) {
		t.Fatalf("Tile = %v, want %v", tile, want)
	}
	// Every point of the tile maps back to the same K' key.
	tile.Each(func(k Coord) bool {
		kp, ok := e.MapKey(k)
		if !ok || !kp.Equal(NewCoord(2, 5)) {
			t.Fatalf("MapKey(%v) = %v, %v", k, kp, ok)
		}
		return true
	})
	if _, err := e.Tile(NewCoord(-1, 0)); err == nil {
		t.Fatal("negative key accepted")
	}
}

func TestIntermediateSpacePaperExample(t *testing.T) {
	// §3 Area 3: {365,250,200} input with {7,5,1} extraction, discarding
	// the partial 53rd week, gives K'^T = {52,50,200}.
	e := MustExtraction(NewShape(7, 5, 1), nil)
	got, err := e.IntermediateSpace(NewShape(365, 250, 200), false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, NewShape(52, 50, 200)) {
		t.Fatalf("IntermediateSpace = %v", got)
	}
	kept, err := e.IntermediateSpace(NewShape(365, 250, 200), true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(kept, NewShape(53, 50, 200)) {
		t.Fatalf("IntermediateSpace keepPartial = %v", kept)
	}
}

func TestIntermediateSpaceQuery1(t *testing.T) {
	// Query 1: {7200,360,720,50} with ES {2,36,36,10} -> {3600,10,20,5},
	// i.e. 3.6M intermediate keys.
	e := MustExtraction(NewShape(2, 36, 36, 10), nil)
	got, err := e.IntermediateSpace(NewShape(7200, 360, 720, 50), true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, NewShape(3600, 10, 20, 5)) {
		t.Fatalf("IntermediateSpace = %v", got)
	}
	if got.Size() != 3_600_000 {
		t.Fatalf("K' size = %d", got.Size())
	}
}

func TestTileRangeDense(t *testing.T) {
	e := MustExtraction(NewShape(2, 2), nil)
	// Input slab covering rows 1..4, cols 0..1 touches tiles rows 0..2,
	// col 0.
	in := MustSlab(NewCoord(1, 0), NewShape(4, 2))
	tr, err := e.TileRange(in)
	if err != nil {
		t.Fatal(err)
	}
	want := MustSlab(NewCoord(0, 0), NewShape(3, 1))
	if !tr.Equal(want) {
		t.Fatalf("TileRange = %v, want %v", tr, want)
	}
}

func TestTileRangeExactAlignment(t *testing.T) {
	e := MustExtraction(NewShape(7, 5, 1), nil)
	// One aligned week of the temperature dataset maps to exactly one
	// K' row of tiles.
	in := MustSlab(NewCoord(7, 0, 0), NewShape(7, 250, 200))
	tr, err := e.TileRange(in)
	if err != nil {
		t.Fatal(err)
	}
	want := MustSlab(NewCoord(1, 0, 0), NewShape(1, 50, 200))
	if !tr.Equal(want) {
		t.Fatalf("TileRange = %v, want %v", tr, want)
	}
}

func TestTileRangeStrided(t *testing.T) {
	e := MustExtraction(NewShape(2), NewShape(5))
	// Slab [3,5) covers only the gap of tile 0 and the start of tile 1.
	in := MustSlab(NewCoord(3), NewShape(3)) // points 3,4,5
	tr, err := e.TileRange(in)
	if err != nil {
		t.Fatal(err)
	}
	want := MustSlab(NewCoord(1), NewShape(1))
	if !tr.Equal(want) {
		t.Fatalf("TileRange = %v, want %v", tr, want)
	}
	// A slab entirely inside a gap overlaps no tiles.
	gap := MustSlab(NewCoord(2), NewShape(3)) // points 2,3,4
	if _, err := e.TileRange(gap); err == nil {
		t.Fatal("gap-only slab accepted")
	}
}

func TestSourceRangeInverse(t *testing.T) {
	e := MustExtraction(NewShape(2, 3), nil)
	kp := MustSlab(NewCoord(1, 2), NewShape(2, 2))
	src, err := e.SourceRange(kp)
	if err != nil {
		t.Fatal(err)
	}
	want := MustSlab(NewCoord(2, 6), NewShape(4, 6))
	if !src.Equal(want) {
		t.Fatalf("SourceRange = %v, want %v", src, want)
	}
	// Round trip: the tile range of the source range is the original.
	tr, err := e.TileRange(src)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(kp) {
		t.Fatalf("TileRange(SourceRange) = %v, want %v", tr, kp)
	}
}

func TestExtractionString(t *testing.T) {
	if got := MustExtraction(NewShape(2, 2), nil).String(); got != "es{2, 2}" {
		t.Fatalf("String = %q", got)
	}
	if got := MustExtraction(NewShape(2), NewShape(5)).String(); got != "es{2} stride{5}" {
		t.Fatalf("String = %q", got)
	}
}

// TestQuickMapKeyConsistentWithTileRange verifies the central SIDR
// invariant: for every point k of an input slab that maps to some K' key,
// that key lies within TileRange(slab).
func TestQuickMapKeyConsistentWithTileRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		es := make(Shape, rank)
		var stride Shape
		for i := range es {
			es[i] = 1 + r.Int63n(4)
		}
		if r.Intn(2) == 0 {
			stride = make(Shape, rank)
			for i := range stride {
				stride[i] = es[i] + r.Int63n(3)
			}
		}
		e := MustExtraction(es, stride)
		c := make(Coord, rank)
		s := make(Shape, rank)
		for i := range c {
			c[i] = r.Int63n(8)
			s[i] = 1 + r.Int63n(8)
		}
		in := Slab{Corner: c, Shape: s}
		tr, err := e.TileRange(in)
		if err != nil {
			// Legal only for strided extractions where the slab sits in a
			// gap along some dimension; then no point may map.
			ok := true
			in.Each(func(k Coord) bool {
				if _, mapped := e.MapKey(k); mapped {
					ok = false
					return false
				}
				return true
			})
			return ok
		}
		ok := true
		in.Each(func(k Coord) bool {
			kp, mapped := e.MapKey(k)
			if mapped && !tr.Contains(kp) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTileRangeTight verifies every tile in TileRange actually
// overlaps the input slab's data region (no spurious dependencies, which
// would weaken SIDR's early-start guarantee for correctness but hurt the
// benefit; tightness matters for Table 3's connection counts).
func TestQuickTileRangeTight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(2)
		es := make(Shape, rank)
		for i := range es {
			es[i] = 1 + r.Int63n(4)
		}
		e := MustExtraction(es, nil)
		c := make(Coord, rank)
		s := make(Shape, rank)
		for i := range c {
			c[i] = r.Int63n(8)
			s[i] = 1 + r.Int63n(8)
		}
		in := Slab{Corner: c, Shape: s}
		tr, err := e.TileRange(in)
		if err != nil {
			return false
		}
		ok := true
		tr.Each(func(kp Coord) bool {
			tile, err := e.Tile(kp)
			if err != nil || !overlaps(tile, in) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// MustExtraction is NewExtraction that panics on error.
func MustExtraction(shape, stride Shape) Extraction {
	e, err := NewExtraction(shape, stride)
	if err != nil {
		panic(err)
	}
	return e
}

// MapKey maps a key k in the input keyspace K to its key in the
// intermediate keyspace K' (SIDR §3, Area 2): each coordinate is divided
// by the corresponding stride extent. For strided extractions a point may
// fall in the gap between tiles; ok is false in that case.
func (e Extraction) MapKey(k Coord) (kp Coord, ok bool) {
	kp, ok = e.MapKeyInto(k, nil)
	if !ok {
		return nil, false
	}
	return kp, true
}

// MapKeyInto is MapKey writing into buf when it has the capacity (the
// returned coordinate then aliases buf), so per-record loops can map
// keys without allocating.
func (e Extraction) MapKeyInto(k, buf Coord) (kp Coord, ok bool) {
	st := e.EffectiveStride()
	if len(k) != len(st) {
		return nil, false
	}
	if cap(buf) >= len(k) {
		kp = buf[:len(k)]
	} else {
		kp = make(Coord, len(k))
	}
	for i := range k {
		if k[i] < 0 {
			return kp, false
		}
		kp[i] = k[i] / st[i]
		if k[i]%st[i] >= e.Shape[i] {
			return kp, false // in the inter-tile gap of a strided access
		}
	}
	return kp, true
}

// IntermediateSpace computes the shape of the intermediate keyspace K'^T
// for a query whose input keyspace (origin-rooted) has shape ks
// (SIDR §3, Area 3). Partial trailing tiles are included (ceil division)
// when keepPartial is true, discarded (floor division) otherwise.
func (e Extraction) IntermediateSpace(ks Shape, keepPartial bool) (Shape, error) {
	st := e.EffectiveStride()
	if len(ks) != len(st) {
		return nil, ErrRankMismatch
	}
	if keepPartial {
		return ks.CeilDiv(st)
	}
	return ks.FloorDiv(st)
}

// SourceRange returns the slab in the input space K whose points map to
// intermediate keys within kpSlab (in K'). It is the inverse of TileRange
// used when a Reduce task re-derives its input dependencies on demand
// (the paper's "store vs re-compute" alternative, §3.2.1).
func (e Extraction) SourceRange(kpSlab Slab) (Slab, error) {
	st := e.EffectiveStride()
	if kpSlab.Rank() != len(st) {
		return Slab{}, ErrRankMismatch
	}
	corner := make(Coord, kpSlab.Rank())
	shape := make(Shape, kpSlab.Rank())
	for i := range corner {
		corner[i] = kpSlab.Corner[i] * st[i]
		// Last tile's data region ends at (corner+shape-1)*st + e.Shape.
		end := (kpSlab.Corner[i]+kpSlab.Shape[i]-1)*st[i] + e.Shape[i]
		shape[i] = end - corner[i]
	}
	return Slab{Corner: corner, Shape: shape}, nil
}
