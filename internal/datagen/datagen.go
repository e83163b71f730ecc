// Package datagen synthesises the datasets the paper's experiments read:
// windspeed-like fields (Query 1), normally distributed values (Query 2's
// 3σ filter), and seasonal temperature grids (the running example). All
// generators are pure functions of the coordinate and a seed, so datasets
// of any size can be streamed without materialisation and runs are
// reproducible bit-for-bit.
package datagen

import (
	"fmt"
	"math"

	"sidr/internal/coords"
	"sidr/internal/ncfile"
)

// hash64 mixes a coordinate and seed into a uniform uint64
// (FNV-1a-style).
func hash64(seed int64, k coords.Coord) uint64 {
	h := uint64(1469598103934665603) ^ uint64(seed)*1099511628211
	for _, x := range k {
		h ^= uint64(x)
		h *= 1099511628211
	}
	// Finalise (xorshift-multiply) so low bits are well mixed.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// uniform returns a deterministic uniform value in [0, 1).
func uniform(seed int64, k coords.Coord) float64 {
	return float64(hash64(seed, k)>>11) / float64(1<<53)
}

// Windspeed returns a generator resembling hourly windspeed measurements:
// a diurnal cycle plus elevation gradient plus noise, in m/s. The paper's
// Query 1 dataset is {time, lat, lon, elevation}.
func Windspeed(seed int64) func(coords.Coord) float64 {
	return func(k coords.Coord) float64 {
		var t, elev float64
		if len(k) > 0 {
			t = float64(k[0])
		}
		if len(k) > 3 {
			elev = float64(k[3])
		}
		base := 8 + 3*math.Sin(2*math.Pi*t/24) + 0.2*elev
		return base + 4*(uniform(seed, k)-0.5)
	}
}

// Gaussian returns a generator of approximately normal values with the
// given mean and standard deviation, built from the sum of four uniforms
// (Irwin–Hall) — accurate enough in the ±4σ range the 3σ filter probes
// while staying a pure coordinate hash.
func Gaussian(seed int64, mean, std float64) func(coords.Coord) float64 {
	return func(k coords.Coord) float64 {
		var sum float64
		for i := int64(0); i < 4; i++ {
			sum += uniform(seed+i*7919, k)
		}
		// Irwin-Hall(4): mean 2, variance 4/12 -> std 1/sqrt(3).
		z := (sum - 2) * math.Sqrt(3)
		return mean + std*z
	}
}

// Temperature returns a generator of daily temperatures (°C) over a
// {time, lat, lon} grid with seasonal and latitudinal structure — the
// Figure 2 dataset.
func Temperature(seed int64) func(coords.Coord) float64 {
	return func(k coords.Coord) float64 {
		var day, lat float64
		if len(k) > 0 {
			day = float64(k[0])
		}
		if len(k) > 1 {
			lat = float64(k[1])
		}
		seasonal := 15 - 12*math.Cos(2*math.Pi*day/365)
		gradient := -0.05 * lat
		return seasonal + gradient + 3*(uniform(seed, k)-0.5)
	}
}

// EvenKeyed returns a generator whose values are immaterial; it exists to
// pair with queries whose intermediate keys are patterned (the §4.3 skew
// scenario) where only the key structure matters.
func EvenKeyed(seed int64) func(coords.Coord) float64 {
	return func(k coords.Coord) float64 {
		return uniform(seed, k) * 100
	}
}

// Zipf returns a generator with Zipf-distributed data presence along the
// leading dimension: early rows are dense, deep rows are mostly missing
// (NaN), with presence probability (1 + r/4)^-skew for leading
// coordinate r. A skew <= 0 defaults to 1.2. Present cells hold small
// integers, so float sums over them are exact and order-independent —
// the property the join byte-identity tests rely on. Joining a Zipf side
// against a uniform one concentrates value-dependent load in the low
// keyblocks, the skew the planner's re-tiling exists to absorb.
func Zipf(seed int64, skew float64) func(coords.Coord) float64 {
	if skew <= 0 {
		skew = 1.2
	}
	return func(k coords.Coord) float64 {
		var r float64
		if len(k) > 0 {
			r = float64(k[0])
		}
		p := math.Pow(1+r/4, -skew)
		if uniform(seed^0x5eedface, k) >= p {
			return math.NaN()
		}
		return float64(hash64(seed, k) % 1024)
	}
}

// Integers returns a generator of dense small-integer values — the
// uniform counterpart to Zipf for join tests and benches where exact,
// order-independent float summation matters.
func Integers(seed int64) func(coords.Coord) float64 {
	return func(k coords.Coord) float64 {
		return float64(hash64(seed, k) % 1024)
	}
}

// WriteDataset materialises a generated dataset into an ncfile container
// with a single float64 variable named varName over dims d0, d1, .... fn
// receives one coordinate buffer that is overwritten between calls and
// must not retain it — the contract of every generator in this package.
func WriteDataset(path, varName string, shape coords.Shape, fn func(coords.Coord) float64) error {
	if err := shape.Validate(); err != nil {
		return err
	}
	h := &ncfile.Header{
		Attrs: []ncfile.Attribute{{Name: "generator", Value: "sidr/datagen"}},
	}
	dims := make([]string, shape.Rank())
	for i := range dims {
		dims[i] = fmt.Sprintf("d%d", i)
		h.Dims = append(h.Dims, ncfile.Dimension{Name: dims[i], Length: shape[i]})
	}
	h.Vars = append(h.Vars, ncfile.Variable{Name: varName, Type: ncfile.Float64, Dims: dims})
	f, err := ncfile.CreateEmpty(path, h)
	if err != nil {
		return err
	}
	defer f.Close()
	// Stream batch by batch to bound memory for large datasets; whole
	// rows coalesce into one write.
	buf := make([]float64, 0, coords.BatchPoints)
	full := coords.Slab{Corner: make(coords.Coord, shape.Rank()), Shape: shape}
	err = full.Batches(coords.BatchPoints, func(batch coords.Slab) error {
		buf = buf[:0]
		batch.EachReuse(func(k coords.Coord) bool {
			buf = append(buf, fn(k))
			return true
		})
		return f.WriteSlab(varName, batch, buf)
	})
	if err != nil {
		return err
	}
	return f.Sync()
}
