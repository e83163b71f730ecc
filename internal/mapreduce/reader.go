package mapreduce

import (
	"context"
	"fmt"

	"sidr/internal/coords"
	"sidr/internal/hdfs"
	"sidr/internal/ncfile"
)

// FileReader reads slabs from an ncfile container — the SciHadoop record
// reader whose input and output both live in logical coordinate space
// (§2.4.1). Scans ask for a bounded batch of whole rows at a time, so
// memory stays bounded by the batch rather than the whole split.
type FileReader struct {
	File *ncfile.File
	Var  string
}

// ReadSlabInto implements coords.RecordReader.
func (r *FileReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	return r.File.ReadSlabInto(r.Var, slab, dst)
}

// FuncReader synthesises values from a pure function of the coordinate —
// datasets too large to materialise (or defined analytically) without a
// file. Fn must not retain its argument.
type FuncReader struct {
	Fn func(coords.Coord) float64
	// Ctx, when set, aborts a read between points once it is done. Map
	// tasks check cancellation per batch; a batch of Fn calls costs what
	// the caller's function costs, so the one reader that runs caller
	// code between points keeps the per-point check.
	Ctx context.Context
}

// ReadSlabInto implements coords.RecordReader.
func (r *FuncReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	if n := slab.Size(); int64(cap(dst)) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	var err error
	slab.EachReuse(func(k coords.Coord) bool {
		if r.Ctx != nil && len(dst)&63 == 0 {
			if err = r.Ctx.Err(); err != nil {
				return false
			}
		}
		dst = append(dst, r.Fn(k))
		return true
	})
	return dst, err
}

// GenerateSplits carves the query input into contiguous leading-dimension
// bands of roughly targetPoints points each — SciHadoop's
// logical-coordinate split generation. The splits carry no Hosts. ns,
// file and bytesPerPoint are unread: they stay only because the
// benchmark harness (bench/replay.go) calls GenerateSplits with them.
func GenerateSplits(input coords.Slab, targetPoints int64, ns *hdfs.Namespace, file string, bytesPerPoint int64) ([]InputSplit, error) {
	if targetPoints <= 0 {
		return nil, fmt.Errorf("mapreduce: targetPoints must be positive, got %d", targetPoints)
	}
	rowSize := input.Shape.Size() / input.Shape[0]
	rows := targetPoints / rowSize
	if rows < 1 {
		rows = 1
	}
	slabs, err := input.SplitDim(0, rows)
	if err != nil {
		return nil, err
	}
	splits := make([]InputSplit, len(slabs))
	for i, s := range slabs {
		splits[i] = InputSplit{ID: i, Slab: s}
	}
	return splits, nil
}

// Slabs extracts the slab of each split, the form the dependency planner
// consumes.
func Slabs(splits []InputSplit) []coords.Slab {
	out := make([]coords.Slab, len(splits))
	for i, s := range splits {
		out[i] = s.Slab
	}
	return out
}
