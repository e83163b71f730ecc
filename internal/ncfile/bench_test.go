package ncfile

import (
	"path/filepath"
	"testing"

	"sidr/internal/coords"
)

func benchFile(b *testing.B) *File {
	b.Helper()
	h := &Header{
		Dims: []Dimension{{Name: "t", Length: 256}, {Name: "x", Length: 256}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"t", "x"}}},
	}
	f, err := CreateEmpty(filepath.Join(b.TempDir(), "bench.ncf"), h)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

func BenchmarkWriteSlab(b *testing.B) {
	f := benchFile(b)
	slab := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(64, 256))
	vals := make([]float64, slab.Size())
	b.SetBytes(slab.Size() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteSlab("v", slab, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// The read benchmarks reuse one destination, as a Map task's batch does,
// so they measure the read and its decode rather than the allocation.

func BenchmarkReadSlabContiguous(b *testing.B) {
	f := benchFile(b)
	slab := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(64, 256))
	dst := make([]float64, slab.Size())
	b.SetBytes(slab.Size() * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadSlabInto("v", slab, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSlabStridedColumns(b *testing.B) {
	// A narrow column slab forces one IO run per row — the access
	// pattern sentinel output writing suffers from.
	f := benchFile(b)
	slab := coords.MustSlab(coords.NewCoord(0, 100), coords.NewShape(256, 4))
	dst := make([]float64, slab.Size())
	b.SetBytes(slab.Size() * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadSlabInto("v", slab, dst); err != nil {
			b.Fatal(err)
		}
	}
}
