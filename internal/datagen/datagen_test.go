package datagen

import (
	"math"
	"path/filepath"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/ncfile"
)

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(coords.Coord) float64{
		"windspeed":   Windspeed(1),
		"gaussian":    Gaussian(1, 0, 1),
		"temperature": Temperature(1),
		"evenkeyed":   EvenKeyed(1),
	}
	k := coords.NewCoord(3, 4, 5, 6)
	for name, g := range gens {
		if g(k) != g(k.Clone()) {
			t.Errorf("%s not deterministic", name)
		}
	}
	// Different seeds produce different fields.
	if Windspeed(1)(k) == Windspeed(2)(k) {
		t.Error("seed has no effect")
	}
}

func TestGaussianMoments(t *testing.T) {
	g := Gaussian(42, 10, 2)
	var sum, sumSq float64
	n := 0
	slab := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(200, 200))
	slab.Each(func(k coords.Coord) bool {
		v := g(k)
		sum += v
		sumSq += v * v
		n++
		return true
	})
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %v", std)
	}
}

func TestGaussianTailFraction(t *testing.T) {
	// Query 2 relies on ~0.1% of values exceeding mean+3σ. Irwin-Hall(4)
	// is lighter-tailed than a true normal; just require a small nonzero
	// tail in the right ballpark (between 0.01% and 0.5%).
	g := Gaussian(7, 0, 1)
	count, n := 0, 0
	slab := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(400, 400))
	slab.Each(func(k coords.Coord) bool {
		if g(k) > 3 {
			count++
		}
		n++
		return true
	})
	frac := float64(count) / float64(n)
	if frac <= 0.0001 || frac >= 0.005 {
		t.Fatalf("3σ tail fraction = %v", frac)
	}
}

func TestWindspeedStructure(t *testing.T) {
	g := Windspeed(3)
	// Elevation gradient: averaged over time, higher elevation -> higher
	// speed.
	avgAt := func(elev int64) float64 {
		var sum float64
		n := 0
		for tm := int64(0); tm < 240; tm++ {
			sum += g(coords.NewCoord(tm, 0, 0, elev))
			n++
		}
		return sum / float64(n)
	}
	if !(avgAt(40) > avgAt(0)+4) {
		t.Fatalf("no elevation gradient: %v vs %v", avgAt(40), avgAt(0))
	}
}

func TestTemperatureSeasons(t *testing.T) {
	g := Temperature(5)
	avgDay := func(day int64) float64 {
		var sum float64
		for lat := int64(0); lat < 50; lat++ {
			sum += g(coords.NewCoord(day, lat, 0))
		}
		return sum / 50
	}
	if !(avgDay(182) > avgDay(0)+15) {
		t.Fatalf("no seasonal swing: summer %v vs winter %v", avgDay(182), avgDay(0))
	}
}

func TestWriteDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ncf")
	shape := coords.NewShape(6, 5, 4)
	gen := Windspeed(9)
	if err := WriteDataset(path, "wind", shape, gen); err != nil {
		t.Fatal(err)
	}
	f, err := ncfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	full := coords.Slab{Corner: coords.NewCoord(0, 0, 0), Shape: shape}
	got, err := f.ReadSlab("wind", full)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	full.Each(func(k coords.Coord) bool {
		if got[i] != gen(k) {
			t.Fatalf("value at %v: got %v want %v", k, got[i], gen(k))
		}
		i++
		return true
	})
	if err := WriteDataset(path, "w", coords.Shape{0}, gen); err == nil {
		t.Fatal("invalid shape accepted")
	}
}
