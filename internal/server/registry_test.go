package server

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/datagen"
)

// TestReregisterRewrittenFilePrunesExactly rewrites a registered file in
// place with the same shape and other values, then registers it in a
// fresh registry, as a daemon restart does. The fresh registry's index
// must describe the values now in the file: a filter pruned with it
// equals the unpruned run row for row and bit for bit. Registration
// leaves nothing beside the container.
func TestReregisterRewrittenFilePrunesExactly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.ncf")
	shape := coords.NewShape(64, 8, 8)
	write := func(fn func(coords.Coord) float64) {
		t.Helper()
		if err := datagen.WriteDataset(path, "v", shape, fn); err != nil {
			t.Fatal(err)
		}
	}
	write(func(coords.Coord) float64 { return 0 })
	if err := NewRegistry().AddFile("v", path); err != nil {
		t.Fatal(err)
	}
	write(func(k coords.Coord) float64 { return 20 + float64(k[0]) })
	registry := NewRegistry()
	if err := registry.AddFile("v", path); err != nil {
		t.Fatal(err)
	}
	ix := registry.Index("v", "v")
	if ix == nil {
		t.Fatal("registration built no index")
	}

	ds, release, err := registry.Acquire("v", "v")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	q, err := sidr.ParseQuery("filter_gt v[0,0,0 : 64,8,8] es {1,1,1} param 10")
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR})
	if err != nil {
		t.Fatal(err)
	}
	if len(unpruned.Keys) != int(shape.Size()) {
		t.Fatalf("unpruned run returned %d rows, want %d", len(unpruned.Keys), shape.Size())
	}
	if len(pruned.Keys) != len(unpruned.Keys) {
		t.Fatalf("pruned run returned %d rows, unpruned %d", len(pruned.Keys), len(unpruned.Keys))
	}
	for i := range unpruned.Keys {
		if !coords.Coord(pruned.Keys[i]).Equal(unpruned.Keys[i]) {
			t.Fatalf("row %d: pruned key %v, unpruned %v", i, pruned.Keys[i], unpruned.Keys[i])
		}
		pv, uv := pruned.Values[i], unpruned.Values[i]
		if len(pv) != len(uv) {
			t.Fatalf("row %d: pruned %d values, unpruned %d", i, len(pv), len(uv))
		}
		for j := range uv {
			if math.Float64bits(pv[j]) != math.Float64bits(uv[j]) {
				t.Fatalf("row %d value %d: pruned %v, unpruned %v", i, j, pv[j], uv[j])
			}
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "v.ncf" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("data directory holds %v, want only v.ncf", names)
	}
}
