package ncfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"sidr/internal/coords"
)

// This file implements the three strategies a Reduce task can use to
// materialise scientific output, evaluated in paper §4.4 / Table 2:
//
//   - Dense: SIDR's path. partition+ keyblocks are contiguous in K', so a
//     task writes a small file shaped exactly like its keyblock, with the
//     global position recorded as the variable's origin.
//   - Sentinel: the stock-Hadoop path for sparse keyblocks. Each task
//     writes a file spanning the ENTIRE output space, filled with a
//     sentinel, then scatters its values in. Cost scales with total
//     output size per task, i.e. with the number of Reduce tasks.
//   - Pairs: explicit ⟨coordinate, value⟩ records; constant per-value
//     overhead but the implicit-coordinate property of dense arrays is
//     lost.

// OutputStrategy names a Reduce-output materialisation strategy.
type OutputStrategy int

const (
	// Dense writes a contiguous sub-array file with an origin (SIDR).
	Dense OutputStrategy = iota
	// Sentinel writes a full-space file with sentinel fill (stock Hadoop).
	Sentinel
	// Pairs writes explicit coordinate/value records.
	Pairs
)

// String names the strategy.
func (s OutputStrategy) String() string {
	switch s {
	case Dense:
		return "dense"
	case Sentinel:
		return "sentinel"
	case Pairs:
		return "pairs"
	default:
		return fmt.Sprintf("OutputStrategy(%d)", int(s))
	}
}

// DefaultSentinel is the fill value marking absent data in sentinel files.
const DefaultSentinel = math.MaxFloat64

// WriteDense writes the values of a contiguous keyblock slab (row-major)
// as a dense file whose variable has shape keyblock.Shape and origin
// keyblock.Corner. It returns the resulting file size in bytes.
func WriteDense(path, varName string, keyblock coords.Slab, values []float64) (int64, error) {
	if int64(len(values)) != keyblock.Size() {
		return 0, fmt.Errorf("ncfile: %d values for keyblock of %d elements", len(values), keyblock.Size())
	}
	h := &Header{}
	dims := make([]string, keyblock.Rank())
	for i := range dims {
		dims[i] = fmt.Sprintf("d%d", i)
		h.Dims = append(h.Dims, Dimension{Name: dims[i], Length: keyblock.Shape[i]})
	}
	h.Vars = append(h.Vars, Variable{
		Name:   varName,
		Type:   Float64,
		Dims:   dims,
		Origin: append([]int64(nil), keyblock.Corner...),
	})
	f, err := CreateEmpty(path, h)
	if err != nil {
		return 0, err
	}
	local := coords.Slab{Corner: make(coords.Coord, keyblock.Rank()), Shape: keyblock.Shape}
	if err := f.WriteSlab(varName, local, values); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return 0, err
	}
	return size, f.Close()
}

// WriteSentinel writes a file spanning the entire output space
// (totalSpace), filled with sentinel, then scatters the task's values at
// their global coordinates. keys[i] is the global coordinate of
// values[i]. It returns the resulting file size in bytes.
func WriteSentinel(path, varName string, totalSpace coords.Shape, sentinel float64, keys []coords.Coord, values []float64) (int64, error) {
	if len(keys) != len(values) {
		return 0, fmt.Errorf("ncfile: %d keys for %d values", len(keys), len(values))
	}
	h := &Header{}
	dims := make([]string, totalSpace.Rank())
	for i := range dims {
		dims[i] = fmt.Sprintf("d%d", i)
		h.Dims = append(h.Dims, Dimension{Name: dims[i], Length: totalSpace[i]})
	}
	h.Vars = append(h.Vars, Variable{Name: varName, Type: Float64, Dims: dims})
	// The sentinel fill is the expensive part: every byte of the full
	// output space is written, regardless of how little useful data this
	// task holds.
	f, err := Create(path, h, sentinel)
	if err != nil {
		return 0, err
	}
	for i, k := range keys {
		sl := coords.Slab{Corner: k, Shape: make(coords.Shape, k.Rank())}
		for d := range sl.Shape {
			sl.Shape[d] = 1
		}
		if err := f.WriteSlab(varName, sl, values[i:i+1]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return 0, err
	}
	return size, f.Close()
}

// pairMagic identifies a coordinate/value pair file.
var pairMagic = [4]byte{'N', 'C', 'F', 'P'}

// WritePairs writes explicit ⟨coordinate, value⟩ records:
//
//	magic | u32 rank | u64 count | count × (rank × i64 coord, f64 value)
//
// It returns the resulting file size in bytes.
func WritePairs(path string, rank int, keys []coords.Coord, values []float64) (int64, error) {
	if len(keys) != len(values) {
		return 0, fmt.Errorf("ncfile: %d keys for %d values", len(keys), len(values))
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	le := binary.LittleEndian
	var b8 [8]byte
	if _, err := bw.Write(pairMagic[:]); err != nil {
		f.Close()
		return 0, err
	}
	var b4 [4]byte
	le.PutUint32(b4[:], uint32(rank))
	bw.Write(b4[:])
	le.PutUint64(b8[:], uint64(len(keys)))
	bw.Write(b8[:])
	for i, k := range keys {
		if k.Rank() != rank {
			f.Close()
			return 0, fmt.Errorf("ncfile: key %v rank != %d", k, rank)
		}
		for _, x := range k {
			le.PutUint64(b8[:], uint64(x))
			if _, err := bw.Write(b8[:]); err != nil {
				f.Close()
				return 0, err
			}
		}
		le.PutUint64(b8[:], math.Float64bits(values[i]))
		if _, err := bw.Write(b8[:]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}
