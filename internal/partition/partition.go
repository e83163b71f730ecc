// Package partition implements the two intermediate-data partitioners the
// paper compares:
//
//   - modulo — Hadoop's default: the modulo of the key's binary
//     representation by the number of Reduce tasks (§3.1). It partitions
//     the whole representable keyspace, so patterned coordinate keys
//     produce skewed keyblocks (§4.3) and its keyblocks are scattered
//     across K', creating global Map→Reduce dependencies (§3.4).
//   - partitionPlus — SIDR's partitioner: computes the actual
//     intermediate keyspace K'^T, tiles it with an n-dimensional shape
//     bounded by a permissible skew, and assigns contiguous runs of tiles
//     to keyblocks (Figure 7). Keyblocks are balanced to within one tile
//     and contiguous in row-major K' order.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"sidr/internal/coords"
)

// Partitioner deterministically maps an intermediate key in K' to a
// keyblock index in [0, NumKeyblocks).
type Partitioner interface {
	// Name identifies the partitioner in traces and benchmarks.
	Name() string
	// NumKeyblocks returns the keyblock (Reduce task) count.
	NumKeyblocks() int
	// Partition maps an intermediate key to its keyblock.
	Partition(kp coords.Coord) (int, error)
}

// KeyEncoding converts an intermediate coordinate key into the integer
// "binary representation" Hadoop's modulo partitioner operates on. The
// choice of encoding is exactly what makes stock Hadoop vulnerable to the
// patterned-key skew of §4.3.
type KeyEncoding interface {
	// Name identifies the encoding.
	Name() string
	// Encode converts a key to its integer representation.
	Encode(kp coords.Coord) (int64, error)
}

// TileIndexEncoding linearises the key within the actual intermediate
// keyspace K'^T (dense, gap-free): the benign encoding.
type TileIndexEncoding struct {
	// Space is the intermediate keyspace K'^T.
	Space coords.Slab
}

// Name implements KeyEncoding.
func (e TileIndexEncoding) Name() string { return "tile-index" }

// Encode implements KeyEncoding.
func (e TileIndexEncoding) Encode(kp coords.Coord) (int64, error) {
	return e.Space.Linearize(kp)
}

// CornerInKEncoding represents the key as the row-major linearisation of
// its tile's *corner coordinate in the input space K* — how SciHadoop
// materialises intermediate keys. Because tile corners sit at multiples
// of the extraction shape, the encoded integers share common factors:
// with an even extraction stride every encoded key is even, and an even
// Reduce count leaves half the Reduce tasks without data (Figure 13).
type CornerInKEncoding struct {
	// InputSpace is the full input keyspace shape (K).
	InputSpace coords.Shape
	// Extraction maps K' keys back to their tile corners in K.
	Extraction coords.Extraction
}

// Name implements KeyEncoding.
func (e CornerInKEncoding) Name() string { return "corner-in-K" }

// Encode implements KeyEncoding.
func (e CornerInKEncoding) Encode(kp coords.Coord) (int64, error) {
	tile, err := e.Extraction.Tile(kp)
	if err != nil {
		return 0, err
	}
	return e.InputSpace.Linearize(tile.Corner)
}

// modulo is Hadoop's default partitioner: encoded key modulo the Reduce
// task count.
type modulo struct {
	R   int
	Enc KeyEncoding
}

// NewModulo builds a modulo partitioner over r keyblocks.
func NewModulo(r int, enc KeyEncoding) (*modulo, error) {
	if r <= 0 {
		return nil, fmt.Errorf("partition: reducer count %d must be positive", r)
	}
	if enc == nil {
		return nil, fmt.Errorf("partition: nil key encoding")
	}
	return &modulo{R: r, Enc: enc}, nil
}

// Name implements Partitioner.
func (m *modulo) Name() string { return "modulo/" + m.Enc.Name() }

// NumKeyblocks implements Partitioner.
func (m *modulo) NumKeyblocks() int { return m.R }

// Partition implements Partitioner.
func (m *modulo) Partition(kp coords.Coord) (int, error) {
	v, err := m.Enc.Encode(kp)
	if err != nil {
		return 0, err
	}
	idx := int(v % int64(m.R))
	if idx < 0 {
		idx += m.R
	}
	return idx, nil
}

// Keyblock is one partitionPlus keyblock: a contiguous run of row-major
// linear positions within K'^T, with its rectangular slab when the run is
// a rectangle (which holds whenever the run is whole tiles stacked along
// the leading dimension — the common case, including every paper query).
type Keyblock struct {
	// Index is the keyblock id (== Reduce task id).
	Index int
	// Lo and Hi bound the row-major linear range [Lo, Hi) within K'^T.
	Lo, Hi int64
	// Slab is the rectangular extent when the range is rectangular;
	// Rect reports whether it is.
	Slab coords.Slab
	Rect bool
}

// Size returns the number of K' keys in the keyblock.
func (k Keyblock) Size() int64 { return k.Hi - k.Lo }

// partitionPlus is SIDR's structure-aware partitioner.
type partitionPlus struct {
	// Space is the intermediate keyspace K'^T.
	Space coords.Slab
	// TileShape is the skew-bounding shape chosen per Figure 7 step A.
	TileShape coords.Shape
	// Blocks are the keyblocks, contiguous and in row-major order.
	Blocks []Keyblock

	r    int
	live []bool // live rows of Space's leading dimension; nil: all
}

// DefaultMaxSkew is the permissible-skew bound used when the query does
// not specify one: keyblock sizes may differ by at most this many K'
// keys.
const DefaultMaxSkew = 1 << 16

// NewPartitionPlus partitions the intermediate keyspace `space` (K'^T)
// into r contiguous keyblocks balanced over its live keys (Figure 7).
// live marks which rows of space's leading dimension (indexed from the
// space's corner) any input split can reach — a structurally pruned
// plan's kept splits reach only some; nil means every row is live.
// Keyblocks hold live tile instances that differ in count by at most
// one, and the keys between them ride along with the live instance
// before them, so the keyblocks still cover all of space. maxSkew <= 0
// selects DefaultMaxSkew.
func NewPartitionPlus(space coords.Slab, r int, maxSkew int64, live []bool) (*partitionPlus, error) {
	if r <= 0 {
		return nil, fmt.Errorf("partition: reducer count %d must be positive", r)
	}
	if err := space.Shape.Validate(); err != nil {
		return nil, fmt.Errorf("partition: intermediate space: %w", err)
	}
	if live != nil && int64(len(live)) != space.Shape[0] {
		return nil, fmt.Errorf("partition: live mask has %d rows for a space of %d", len(live), space.Shape[0])
	}
	if maxSkew <= 0 {
		maxSkew = DefaultMaxSkew
	}
	total := space.Shape.Size()
	pp := &partitionPlus{Space: space.Clone(), r: r, live: slices.Clone(live)}
	liveKeys := total
	if live != nil {
		liveKeys = 0
		for _, l := range live {
			if l {
				liveKeys += pp.rowSize()
			}
		}
	}

	// The effective skew bound is tightened to the per-reducer share of
	// the live keys when the user bound is coarser, so a tile never spans
	// more than one reducer's worth of reachable keys (the "chosen by the
	// system based on the query" case of §3.1).
	eff := maxSkew
	if share := liveKeys / int64(r); share < eff {
		eff = share
		if eff < 1 {
			eff = 1
		}
	}

	// Step A: choose an n-dimensional tile no larger than the bound.
	// Greedily take full trailing extents while they fit, then a partial
	// extent of the next dimension. The tile always spans full extents of
	// every dimension after its partial one, so whole tiles stack
	// contiguously in row-major order.
	tile := space.Shape.Clone()
	rowSize := int64(1)
	dim := 0
	for dim = len(tile) - 1; dim >= 0; dim-- {
		if rowSize*tile[dim] > eff {
			break
		}
		rowSize *= tile[dim]
	}
	if dim >= 0 {
		// Partial extent in dimension dim; everything before it is 1.
		t := eff / rowSize
		if t < 1 {
			t = 1
		}
		if t > tile[dim] {
			t = tile[dim]
		}
		tile[dim] = t
		for i := 0; i < dim; i++ {
			tile[i] = 1
		}
	}
	pp.TileShape = tile
	tileSize := tile.Size()

	// Step B: tile instances cover the space in row-major order; treat
	// them as a linear sequence and give each keyblock floor(L/r) of the L
	// live ones, with the first (L mod r) keyblocks taking one extra —
	// keyblocks differ by at most one live instance of the chosen shape
	// (§3.1, Figure 7). A keyblock starts at its first live instance, so a
	// dead instance joins the keyblock before it and a dead prefix joins
	// keyblock 0. With every row live this is the uniform split of all
	// instances.
	instances := (total + tileSize - 1) / tileSize
	var nLive int64
	for j := range instances {
		if pp.instanceLive(j) {
			nLive++
		}
	}
	per := nLive / int64(r)
	rem := nLive % int64(r)
	starts := make([]int64, r+1) // starts[i]: keyblock i's first key offset
	for i := 1; i <= r; i++ {
		starts[i] = total
	}
	next, rank := 1, int64(0) // next keyblock to start; live instances seen
	for j := int64(0); j < instances && next < r; j++ {
		if !pp.instanceLive(j) {
			continue
		}
		if rank == int64(next)*per+min(int64(next), rem) {
			starts[next] = j * tileSize
			next++
		}
		rank++
	}
	for i := 0; i < r; i++ {
		lo, hi := starts[i], starts[i+1]
		kb := Keyblock{Index: i, Lo: lo, Hi: hi}
		if hi > lo {
			kb.Slab, kb.Rect = rangeToSlab(space, lo, hi)
		}
		pp.Blocks = append(pp.Blocks, kb)
	}
	return pp, nil
}

// rowSize is the number of keys in one row of the space's leading
// dimension.
func (p *partitionPlus) rowSize() int64 { return p.Space.Shape.Size() / p.Space.Shape[0] }

// instanceLive reports whether tile instance j — the linear key range
// [j·|tile|, (j+1)·|tile|) clipped to the space — touches a live row.
func (p *partitionPlus) instanceLive(j int64) bool {
	if p.live == nil {
		return true
	}
	tileSize, rowSize := p.TileShape.Size(), p.rowSize()
	lo := j * tileSize
	hi := min(lo+tileSize, p.Space.Shape.Size())
	for row := lo / rowSize; row*rowSize < hi; row++ {
		if p.live[row] {
			return true
		}
	}
	return false
}

// rangeToSlab converts a row-major linear range of the space into a
// rectangular slab when possible.
func rangeToSlab(space coords.Slab, lo, hi int64) (coords.Slab, bool) {
	if hi <= lo {
		return coords.Slab{}, false
	}
	rowSize := int64(1)
	for i := 1; i < space.Rank(); i++ {
		rowSize *= space.Shape[i]
	}
	if space.Rank() == 1 {
		rowSize = 1
	}
	// Rectangular iff the range is whole leading-dimension rows.
	if rowSize > 0 && lo%rowSize == 0 && hi%rowSize == 0 {
		loC, err1 := space.Delinearize(lo)
		if err1 != nil {
			return coords.Slab{}, false
		}
		sh := space.Shape.Clone()
		sh[0] = (hi - lo) / rowSize
		return coords.Slab{Corner: loC, Shape: sh}, true
	}
	// A range within a single row of a rank-1 space is trivially a slab.
	if space.Rank() == 1 {
		loC, err := space.Delinearize(lo)
		if err != nil {
			return coords.Slab{}, false
		}
		return coords.Slab{Corner: loC, Shape: coords.NewShape(hi - lo)}, true
	}
	return coords.Slab{}, false
}

// Name implements Partitioner.
func (p *partitionPlus) Name() string { return "partition+" }

// NumKeyblocks implements Partitioner.
func (p *partitionPlus) NumKeyblocks() int { return p.r }

// Partition implements Partitioner. Keyblock spans are sorted and
// contiguous, so a binary search over block lower bounds resolves the
// lookup.
func (p *partitionPlus) Partition(kp coords.Coord) (int, error) {
	off, err := p.Space.Linearize(kp)
	if err != nil {
		return 0, err
	}
	if len(p.Blocks) == 0 {
		return 0, fmt.Errorf("partition: no keyblocks")
	}
	idx := sort.Search(len(p.Blocks), func(i int) bool { return p.Blocks[i].Hi > off })
	if idx >= len(p.Blocks) || off < p.Blocks[idx].Lo {
		return 0, fmt.Errorf("partition: key %v (offset %d) outside all keyblocks", kp, off)
	}
	return idx, nil
}
