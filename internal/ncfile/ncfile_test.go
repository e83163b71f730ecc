package ncfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

// paperHeader mirrors Figure 1 of the paper: int temperature(time, lat,
// lon) with dims {365, 250, 200}.
func paperHeader() *Header {
	return &Header{
		Dims: []Dimension{
			{Name: "time", Length: 365},
			{Name: "lat", Length: 250},
			{Name: "lon", Length: 200},
		},
		Vars: []Variable{
			{Name: "temperature", Type: Int64, Dims: []string{"time", "lat", "lon"}},
		},
	}
}

func TestHeaderValidate(t *testing.T) {
	if err := paperHeader().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Header{
		{Dims: []Dimension{{Name: "", Length: 1}}},
		{Dims: []Dimension{{Name: "x", Length: 0}}},
		{Dims: []Dimension{{Name: "x", Length: 1}, {Name: "x", Length: 2}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{{Name: "", Type: Float64, Dims: []string{"x"}}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{{Name: "v", Type: 0, Dims: []string{"x"}}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"y"}}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{{Name: "v", Type: Float64, Dims: nil}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"x"}, Origin: []int64{0, 0}}}},
		{Dims: []Dimension{{Name: "x", Length: 1}}, Vars: []Variable{
			{Name: "v", Type: Float64, Dims: []string{"x"}},
			{Name: "v", Type: Float64, Dims: []string{"x"}},
		}},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad header %d accepted", i)
		}
	}
}

func TestHeaderLookups(t *testing.T) {
	h := paperHeader()
	if l, err := h.DimLength("lat"); err != nil || l != 250 {
		t.Fatalf("DimLength(lat) = %d, %v", l, err)
	}
	if _, err := h.DimLength("nope"); err == nil {
		t.Fatal("missing dim accepted")
	}
	shape, err := h.VarShape("temperature")
	if err != nil {
		t.Fatal(err)
	}
	if !shape.Equal(coords.NewShape(365, 250, 200)) {
		t.Fatalf("VarShape = %v", shape)
	}
	if _, err := h.VarShape("nope"); err == nil {
		t.Fatal("missing var accepted")
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	path := tempPath(t, "t.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "t", Length: 4}, {Name: "x", Length: 6}},
		Vars: []Variable{
			{Name: "wind", Type: Float64, Dims: []string{"t", "x"}},
			{Name: "flags", Type: Int64, Dims: []string{"x"}, Origin: []int64{10}},
		},
	}
	f, err := Create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := g.Header()
	if len(got.Dims) != 2 || len(got.Vars) != 2 {
		t.Fatalf("header round trip: %+v", got)
	}
	v, err := got.Var("flags")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Origin) != 1 || v.Origin[0] != 10 {
		t.Fatalf("origin round trip: %v", v.Origin)
	}
	all, err := readAll(g, "wind")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 24 {
		t.Fatalf("ReadAll returned %d values", len(all))
	}
	for i, x := range all {
		if x != 0 {
			t.Fatalf("fill mismatch at %d: %v", i, x)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := tempPath(t, "bad.ncf")
	if err := os.WriteFile(path, []byte("not an ncfile at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage file accepted")
	}
	if err := os.WriteFile(path, []byte{'N', 'C', 'F', 'G', 9, 9}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWriteReadSlab(t *testing.T) {
	path := tempPath(t, "slab.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 5}, {Name: "b", Length: 7}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b"}}},
	}
	f, err := Create(path, h, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slab := coords.MustSlab(coords.NewCoord(1, 2), coords.NewShape(3, 4))
	vals := make([]float64, slab.Size())
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	if err := f.WriteSlab("v", slab, vals); err != nil {
		t.Fatal(err)
	}
	back, err := f.ReadSlab("v", slab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d: got %v want %v", i, back[i], vals[i])
		}
	}
	// Everything outside the slab must still hold the fill value.
	all, err := readAll(f, "v")
	if err != nil {
		t.Fatal(err)
	}
	full := coords.NewShape(5, 7)
	for off := int64(0); off < full.Size(); off++ {
		c, _ := full.Delinearize(off)
		if slab.Contains(c) {
			continue
		}
		if all[off] != -1 {
			t.Fatalf("outside-slab value at %v = %v, want -1", c, all[off])
		}
	}
}

func TestWriteSlabErrors(t *testing.T) {
	path := tempPath(t, "err.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 4}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a"}}},
	}
	f, err := Create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteSlab("v", coords.MustSlab(coords.NewCoord(0), coords.NewShape(2)), []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := f.WriteSlab("v", coords.MustSlab(coords.NewCoord(3), coords.NewShape(2)), []float64{1, 2}); err == nil {
		t.Fatal("out-of-bounds slab accepted")
	}
	if err := f.WriteSlab("nope", coords.MustSlab(coords.NewCoord(0), coords.NewShape(1)), []float64{1}); err == nil {
		t.Fatal("missing variable accepted")
	}
	if _, err := f.ReadSlab("v", coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(1, 1))); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestInt64Rounding(t *testing.T) {
	path := tempPath(t, "int.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 3}},
		Vars: []Variable{{Name: "v", Type: Int64, Dims: []string{"a"}}},
	}
	f, err := Create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slab := coords.MustSlab(coords.NewCoord(0), coords.NewShape(3))
	if err := f.WriteSlab("v", slab, []float64{1.9, -2.9, 42}); err != nil {
		t.Fatal(err)
	}
	back, err := f.ReadSlab("v", slab)
	if err != nil {
		t.Fatal(err)
	}
	// Int64 stores truncate toward zero as Go's float64->int64 conversion.
	want := []float64{1, -2, 42}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("value %d: got %v want %v", i, back[i], want[i])
		}
	}
}

// readAll reads a variable's entire payload.
func readAll(f *File, varName string) ([]float64, error) {
	full, err := f.header.VarShape(varName)
	if err != nil {
		return nil, err
	}
	return f.ReadSlab(varName, coords.Slab{Corner: make(coords.Coord, full.Rank()), Shape: full})
}

// countRuns reports how many maximal contiguous byte runs (seeks,
// effectively) a hyperslab access of the named variable requires: the
// observable of slabRuns' coalescing. Sparse, strided output assignments
// translate into many runs; SIDR's contiguous keyblocks into few — the
// effect Table 2 measures.
func countRuns(f *File, varName string, slab coords.Slab) (int64, error) {
	_, full, err := f.locate(varName, slab)
	if err != nil {
		return 0, err
	}
	var n int64
	err = slabRuns(full, slab, math.MaxInt64, func(off, length int64) error {
		n++
		return nil
	})
	return n, err
}

func TestCountRuns(t *testing.T) {
	path := tempPath(t, "runs.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 10}, {Name: "b", Length: 10}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b"}}},
	}
	f, err := Create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Runs are maximal: full-width rows coalesce into one run.
	n, err := countRuns(f, "v", coords.MustSlab(coords.NewCoord(2, 0), coords.NewShape(3, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("full-width runs = %d, want 1", n)
	}
	n, err = countRuns(f, "v", coords.MustSlab(coords.NewCoord(0, 3), coords.NewShape(5, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("narrow runs = %d, want 5", n)
	}

	// A Map task's batch — 8 whole rows of a 512×256×64 variable — is one
	// run; narrowing only the last dimension makes it one run per line.
	big := &Header{
		Dims: []Dimension{{Name: "t", Length: 512}, {Name: "y", Length: 256}, {Name: "x", Length: 64}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"t", "y", "x"}}},
	}
	g, err := CreateEmpty(tempPath(t, "bigruns.ncf"), big)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, tc := range []struct {
		corner, shape []int64
		want          int64
	}{
		{[]int64{16, 0, 0}, []int64{8, 256, 64}, 1},
		{[]int64{16, 0, 0}, []int64{8, 256, 63}, 8 * 256},
		{[]int64{16, 3, 0}, []int64{8, 250, 64}, 8},
		{[]int64{16, 3, 5}, []int64{1, 1, 7}, 1},
	} {
		n, err := countRuns(g, "v", coords.MustSlab(coords.NewCoord(tc.corner...), coords.NewShape(tc.shape...)))
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.want {
			t.Fatalf("slab %v+%v: %d runs, want %d", tc.corner, tc.shape, n, tc.want)
		}
	}
}

// TestOutOfBoundSlabNeverAllocates: containment is checked before the
// read buffer is sized, so a request far outside the variable — or one
// whose point count overflows int64 — is ErrOutOfBound, not an attempt to
// allocate terabytes.
func TestOutOfBoundSlabNeverAllocates(t *testing.T) {
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 4}, {Name: "b", Length: 4}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b"}}},
	}
	f, err := Create(tempPath(t, "oob.ncf"), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, slab := range map[string]coords.Slab{
		"huge":     {Corner: coords.NewCoord(0, 0), Shape: coords.NewShape(524288, 524288)},
		"overflow": {Corner: coords.NewCoord(0, 0), Shape: coords.NewShape(1<<62, 1<<62)},
		"wrapping": {Corner: coords.NewCoord(math.MaxInt64-1, 0), Shape: coords.NewShape(4, 4)},
		"negative": {Corner: coords.NewCoord(-1, 0), Shape: coords.NewShape(2, 2)},
		"empty":    {Corner: coords.NewCoord(0, 0), Shape: coords.NewShape(0, 4)},
	} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, rerr := f.ReadSlab("v", slab)
		werr := f.WriteSlab("v", slab, nil)
		runtime.ReadMemStats(&ms)
		if !errors.Is(rerr, ErrOutOfBound) || !errors.Is(werr, ErrOutOfBound) {
			t.Fatalf("%s: read err %v, write err %v, want ErrOutOfBound", name, rerr, werr)
		}
		// Header lookups and the error text allocate a few hundred bytes;
		// a buffer sized from the slab would be huge.
		if grew := ms.TotalAlloc - before; grew > 1<<16 {
			t.Fatalf("%s: %d bytes allocated — the request was sized before it was checked", name, grew)
		}
	}
	if _, err := f.ReadSlab("v", coords.Slab{Corner: coords.NewCoord(0), Shape: coords.NewShape(2)}); !errors.Is(err, coords.ErrRankMismatch) {
		t.Fatalf("rank-1 slab of a rank-2 variable: err %v, want ErrRankMismatch", err)
	}
}

func TestQuickSlabRoundTrip(t *testing.T) {
	path := tempPath(t, "quick.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 6}, {Name: "b", Length: 5}, {Name: "c", Length: 4}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b", "c"}}},
	}
	f, err := Create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	full := coords.NewShape(6, 5, 4)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := make(coords.Coord, 3)
		s := make(coords.Shape, 3)
		for i := range c {
			c[i] = r.Int63n(full[i])
			s[i] = 1 + r.Int63n(full[i]-c[i])
		}
		slab := coords.Slab{Corner: c, Shape: s}
		vals := make([]float64, slab.Size())
		for i := range vals {
			vals[i] = r.NormFloat64()
		}
		if err := f.WriteSlab("v", slab, vals); err != nil {
			return false
		}
		back, err := f.ReadSlab("v", slab)
		if err != nil {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDenseOutput(t *testing.T) {
	path := tempPath(t, "dense.ncf")
	kb := coords.MustSlab(coords.NewCoord(100, 20), coords.NewShape(4, 5))
	vals := make([]float64, kb.Size())
	for i := range vals {
		vals[i] = float64(i)
	}
	size, err := WriteDense(path, "out", kb, vals)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	v, err := f.Header().Var("out")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Origin) != 2 || v.Origin[0] != 100 || v.Origin[1] != 20 {
		t.Fatalf("origin = %v", v.Origin)
	}
	back, err := readAll(f, "out")
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d: got %v want %v", i, back[i], vals[i])
		}
	}
	if _, err := WriteDense(path, "out", kb, vals[:1]); err == nil {
		t.Fatal("short values accepted")
	}
}

func TestWriteSentinelOutput(t *testing.T) {
	path := tempPath(t, "sent.ncf")
	total := coords.NewShape(6, 6)
	keys := []coords.Coord{coords.NewCoord(0, 0), coords.NewCoord(3, 4), coords.NewCoord(5, 5)}
	vals := []float64{1, 2, 3}
	size, err := WriteSentinel(path, "out", total, DefaultSentinel, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Sentinel output is always the full space regardless of useful data.
	if size < total.Size()*8 {
		t.Fatalf("sentinel size %d < payload %d", size, total.Size()*8)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	all, err := readAll(f, "out")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{}
	for i, k := range keys {
		off, _ := total.Linearize(k)
		want[off] = vals[i]
	}
	for off := int64(0); off < total.Size(); off++ {
		if v, ok := want[off]; ok {
			if all[off] != v {
				t.Fatalf("offset %d = %v, want %v", off, all[off], v)
			}
		} else if all[off] != DefaultSentinel {
			t.Fatalf("offset %d = %v, want sentinel", off, all[off])
		}
	}
	if _, err := WriteSentinel(path, "out", total, 0, keys, vals[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWriteReadPairs(t *testing.T) {
	path := tempPath(t, "pairs.ncfp")
	keys := []coords.Coord{coords.NewCoord(1, 2, 3), coords.NewCoord(4, 5, 6)}
	vals := []float64{math.Pi, -1}
	size, err := WritePairs(path, 3, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	// magic + rank + count + 2 records × (3 coords + value) × 8 bytes
	want := int64(4 + 4 + 8 + 2*(3+1)*8)
	if size != want {
		t.Fatalf("pair size = %d, want %d", size, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	back := append([]byte("NCFP"), le.AppendUint32(nil, 3)...)
	back = le.AppendUint64(back, 2)
	for i, k := range keys {
		for _, x := range k {
			back = le.AppendUint64(back, uint64(x))
		}
		back = le.AppendUint64(back, math.Float64bits(vals[i]))
	}
	if !bytes.Equal(got, back) {
		t.Fatalf("pair file reads back % x, want % x", got, back)
	}
	if _, err := WritePairs(path, 2, keys, vals); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestCreateEmptyIsCheap(t *testing.T) {
	// CreateEmpty must produce a file whose logical size matches Create's
	// but without writing the payload; both must read back as usable.
	h := &Header{
		Dims: []Dimension{{Name: "a", Length: 100}, {Name: "b", Length: 100}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b"}}},
	}
	p1 := tempPath(t, "full.ncf")
	p2 := tempPath(t, "empty.ncf")
	f1, err := Create(p1, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := f1.Size()
	f1.Close()
	h2 := &Header{Dims: h.Dims, Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"a", "b"}}}}
	f2, err := CreateEmpty(p2, h2)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := f2.Size()
	f2.Close()
	if s1 != s2 {
		t.Fatalf("sizes differ: %d vs %d", s1, s2)
	}
	g, err := Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := readAll(g, "v"); err != nil {
		t.Fatal(err)
	}
}

func TestTotalSize(t *testing.T) {
	h := paperHeader()
	total, err := h.TotalSize()
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(365*250*200) * 8
	if total <= payload {
		t.Fatalf("TotalSize %d <= payload %d", total, payload)
	}
	if total-payload > 4096 {
		t.Fatalf("header overhead %d implausibly large", total-payload)
	}
}

func TestDataTypeString(t *testing.T) {
	if Float64.String() != "double" || Int64.String() != "int64" {
		t.Fatal("DataType names changed")
	}
	if DataType(99).Size() != 0 {
		t.Fatal("unknown type has nonzero size")
	}
}
