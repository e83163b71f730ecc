// Package sidx implements the structural block-range index: a compact
// per-dataset summary holding, for each variable and each contiguous
// band of leading-dimension rows, the minimum and maximum value plus the
// element count. SIDR's premise is that structural metadata makes
// dependencies computable before execution (§3); sidx extends that from
// routing to skipping — a value-predicated query (filter_gt, filter_lt,
// filter_range) consults the index at plan time and drops every input
// split whose indexed value range cannot satisfy the predicate, before
// the dependency graph derives I_ℓ. Pruning is conservative by
// construction: a block's [min, max] is a superset of any sub-slab's
// value range, so a dropped split provably contributes no surviving
// sample and the pruned plan's output is identical to the unpruned
// plan's.
//
// The index is tiny relative to the data it summarises (a few dozen
// blocks of five scalars per variable), is built in parallel at
// dataset-register time, and lives only in memory: every start scans
// each variable once, so the index always describes the file as it is.
package sidx

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"time"

	"sidr/internal/coords"
)

// rowBlock summarises one contiguous band of leading-dimension rows across
// the variable's full trailing cross-section.
type rowBlock struct {
	// Row0 is the first dim-0 row the block covers.
	Row0 int64
	// Rows is the number of dim-0 rows covered.
	Rows int64
	// Min and Max bound every value in the band.
	Min, Max float64
	// Count is the number of elements summarised.
	Count int64
}

// VarIndex is the block-range index of one variable. Blocks partition
// the leading dimension in ascending row order; together they cover
// rows [0, Shape[0]).
type VarIndex struct {
	// Variable names the indexed variable ("*" for synthetic datasets
	// whose every variable resolves to the same function).
	Variable string
	// Shape is the variable's extents at build time; pruning refuses to
	// apply an index whose shape does not cover the query input.
	Shape coords.Shape
	// Blocks are the per-band summaries, ascending by Row0.
	Blocks []rowBlock
	// BuildTime is how long the parallel build took.
	BuildTime time.Duration

	fpOnce sync.Once
	fp     uint32
}

// Index bundles the per-variable indexes of one dataset.
type Index struct {
	Vars []*VarIndex
}

// statsLen is the byte length of one variable's flat statistics: a
// 2-byte name length and the name, a 2-byte rank and 8 bytes a dim, a
// 4-byte block count and five 8-byte scalars a block.
func (vi *VarIndex) statsLen() int {
	return 2 + len(vi.Variable) + 2 + 8*vi.Shape.Rank() + 4 + 40*len(vi.Blocks)
}

// EncodedSize returns the byte size of the index's flat statistics,
// summed over its variables.
func (ix *Index) EncodedSize() int64 {
	var n int64
	for _, vi := range ix.Vars {
		n += int64(vi.statsLen())
	}
	return n
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint is a stable identity of the variable's statistics — the
// CRC32C of their flat little-endian layout (see statsLen), computed
// once. Pruning is data-dependent, so a cache keyed on (shape, query,
// engine) alone would be poisoned by it; mixing the fingerprint into a
// dataset's version scopes cached pruned results to the exact index
// that produced them.
func (vi *VarIndex) Fingerprint() uint32 {
	vi.fpOnce.Do(func() {
		le := binary.LittleEndian
		b := make([]byte, 0, vi.statsLen())
		b = le.AppendUint16(b, uint16(len(vi.Variable)))
		b = append(b, vi.Variable...)
		b = le.AppendUint16(b, uint16(vi.Shape.Rank()))
		for _, d := range vi.Shape {
			b = le.AppendUint64(b, uint64(d))
		}
		b = le.AppendUint32(b, uint32(len(vi.Blocks)))
		for _, blk := range vi.Blocks {
			b = le.AppendUint64(b, uint64(blk.Row0))
			b = le.AppendUint64(b, uint64(blk.Rows))
			b = le.AppendUint64(b, math.Float64bits(blk.Min))
			b = le.AppendUint64(b, math.Float64bits(blk.Max))
			b = le.AppendUint64(b, uint64(blk.Count))
		}
		vi.fp = crc32.Checksum(b, castagnoli)
	})
	return vi.fp
}

// BuildOptions tunes index construction.
type BuildOptions struct {
	// Blocks is the target block count along the leading dimension
	// (default 64, capped at the row count). More blocks prune at finer
	// granularity and cost proportionally more index bytes.
	Blocks int
}

// BuildVar scans the variable once and returns its block-range index.
// Blocks are scanned in parallel, GOMAXPROCS at a time: each covers a
// near-equal band of leading-dimension rows over the full trailing
// cross-section.
func BuildVar(variable string, shape coords.Shape, r coords.RecordReader, opts BuildOptions) (*VarIndex, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("sidx: %w", err)
	}
	if r == nil {
		return nil, fmt.Errorf("sidx: nil reader")
	}
	rows := shape[0]
	n := opts.Blocks
	if n <= 0 {
		n = 64
	}
	if int64(n) > rows {
		n = int(rows)
	}
	workers := min(runtime.GOMAXPROCS(0), n)

	start := time.Now()
	vi := &VarIndex{Variable: variable, Shape: shape.Clone(), Blocks: make([]rowBlock, n)}
	// Near-equal row bands: the first rem blocks take one extra row.
	base, rem := rows/int64(n), rows%int64(n)
	row := int64(0)
	for i := range vi.Blocks {
		span := base
		if int64(i) < rem {
			span++
		}
		vi.Blocks[i] = rowBlock{Row0: row, Rows: span, Min: math.Inf(1), Max: math.Inf(-1)}
		row += span
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var vals []float64
			for i := range work {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue // drain; the build is already doomed
				}
				b := &vi.Blocks[i]
				slab := coords.Slab{
					Corner: make(coords.Coord, shape.Rank()),
					Shape:  shape.Clone(),
				}
				slab.Corner[0] = b.Row0
				slab.Shape[0] = b.Rows
				var err error
				vals, err = coords.ReadBatches(context.Background(), r, slab, vals, func(_ coords.Slab, vals []float64) error {
					// Plain compares: a NaN never replaces a bound.
					lo, hi := b.Min, b.Max
					for _, v := range vals {
						if v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					b.Min, b.Max, b.Count = lo, hi, b.Count+int64(len(vals))
					return nil
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range vi.Blocks {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("sidx: building %q: %w", variable, firstErr)
	}
	vi.BuildTime = time.Since(start)
	return vi, nil
}

// Covers reports whether the index may prune a query over the given
// input slab: ranks match and the slab lies within the indexed shape.
// An index that does not cover the slab (another variable's, say)
// never prunes.
func (vi *VarIndex) Covers(input coords.Slab) bool {
	if vi == nil || input.Rank() != vi.Shape.Rank() || len(vi.Blocks) == 0 {
		return false
	}
	full := coords.Slab{Corner: make(coords.Coord, vi.Shape.Rank()), Shape: vi.Shape}
	return full.ContainsSlab(input)
}

// PruneSplits returns the indices of splits that may contain a value
// satisfying the block predicate keep. A split is kept when ANY block
// overlapping its leading-dimension rows satisfies keep(min, max) —
// the block range is a superset of the split's, so dropping a split
// whose every overlapping block fails the predicate is provably safe.
// Splits reaching rows the index does not cover are kept outright.
func (vi *VarIndex) PruneSplits(splits []coords.Slab, keep func(min, max float64) bool) []int {
	out := make([]int, 0, len(splits))
	for i, s := range splits {
		if vi.splitMayMatch(s, keep) {
			out = append(out, i)
		}
	}
	return out
}

func (vi *VarIndex) splitMayMatch(s coords.Slab, keep func(min, max float64) bool) bool {
	if s.Rank() != vi.Shape.Rank() || s.Rank() == 0 {
		return true // never wrongly drop what we cannot reason about
	}
	lo, hi := s.Corner[0], s.Corner[0]+s.Shape[0] // rows [lo, hi)
	covered := int64(0)
	if n := len(vi.Blocks); n > 0 {
		last := vi.Blocks[n-1]
		covered = last.Row0 + last.Rows
	}
	if lo < 0 || hi > covered {
		return true // split reaches uncovered rows
	}
	for _, b := range vi.Blocks {
		if b.Row0+b.Rows <= lo {
			continue
		}
		if b.Row0 >= hi {
			break
		}
		if b.Count > 0 && keep(b.Min, b.Max) {
			return true
		}
	}
	return false
}
