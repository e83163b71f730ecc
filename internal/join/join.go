// Package join implements SIDR's structural join subsystem: a two-input
// query whose join keys are tiles of a shared extraction shape, executed
// on the same readiness-driven task graph as single-input queries.
//
// Both inputs' splits live in one combined index space — side A's splits
// occupy [0, SideBoundary), side B's the rest — so dispatch, shuffle and
// per-split spill addressing work unchanged; the side is derived from
// the split index and carried as a trailing coordinate on every spill
// key. Each keyblock's dependency set I_ℓ is the union of contributing
// splits from both datasets, counted per split by routeCounts into
// depgraph.New.
//
// Because partition+'s uniform-tile assumption breaks when per-tile load
// is value-dependent (missing data, selective sides), the planner
// samples per-keyblock expected load from both inputs at plan time and
// re-tiles hot keyblocks (Fan et al.): a keyblock whose sampled load
// exceeds the MaxSkew-derived bound is split into load-weighted
// contiguous sub-keyblocks, and a truly heavy single tile is carved into
// shares SharesSkew-style (Afrati et al.) — the heavy side's cells are
// range-partitioned across the shares by row-major cell offset while the
// light side is replicated into every share. Re-tiling decisions are
// recorded in the plan (Retile) so clustered workers rebuild the exact
// same routing without re-sampling, keeping results byte-identical to an
// in-process run.
package join

import (
	"fmt"
	"sort"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/mapkernel"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// joinUnit is one keyblock of a join plan. A plain unit owns the contiguous
// row-major K'-range [Lo, Hi) of the join keyspace. A share unit (Tile
// non-nil) owns one heavy tile's cells whose row-major offset within the
// full tile falls in [OffLo, OffHi) on the heavy side; the light side is
// replicated into every share of the tile.
type joinUnit struct {
	Lo    int64        `json:"lo"`
	Hi    int64        `json:"hi"`
	Tile  coords.Coord `json:"tile,omitempty"`
	OffLo int64        `json:"off_lo,omitempty"`
	OffHi int64        `json:"off_hi,omitempty"`
	// Heavy is the cell-partitioned side of a share unit (0 = A, 1 = B).
	Heavy int `json:"heavy,omitempty"`
}

// shared reports whether the unit is a heavy-tile share.
func (u joinUnit) shared() bool { return u.Tile != nil }

// Retile records the planner's keyblock layout so remote workers rebuild
// identical routing without re-sampling. EstLoads is the sampled
// expected load per unit (source pairs, replication included), the
// vector skew statistics and the bench report summarize.
type Retile struct {
	Units    []joinUnit `json:"units"`
	EstLoads []int64    `json:"est_loads,omitempty"`
}

// Plan is a fully resolved join execution plan.
type Plan struct {
	Q  *query.Query
	Op ops.JoinOperator
	// Space is the join keyspace K'^T: the intersection of both sides'
	// tile ranges.
	Space coords.Slab
	// SideBoundary splits the combined split index space: indexes below
	// it read side A, the rest side B.
	SideBoundary int
	// Units is the keyblock layout; the slice index is the keyblock id.
	Units []joinUnit
	// EstLoads is the sampled expected load per unit (nil when the plan
	// was built without sampling).
	EstLoads []int64

	// shares maps a shared tile's K'-linear offset to its share unit
	// ids, ascending by OffLo.
	shares map[int64][]int
	// rangeLo/rangeIdx index plain units for binary search by Lo.
	rangeLo  []int64
	rangeIdx []int
}

// Options configure join planning.
type Options struct {
	Reducers int
	// MaxSkew bounds a keyblock's tolerated expected load (partition+'s
	// MaxSkew semantics, applied to sampled pairs instead of tile
	// counts). Zero means partition.DefaultMaxSkew.
	MaxSkew int64
	// NoRetile keeps the base partition+ layout verbatim — the naive
	// baseline the bench compares against. Loads are still sampled when
	// readers are supplied, so the skew of the naive layout is reported.
	NoRetile bool
}

// maxSampledTiles bounds the per-tile load vector; join keyspaces beyond
// it skip sampling (and therefore re-tiling) rather than materialize an
// unbounded vector.
const maxSampledTiles = 1 << 20

// Build plans a join over the two sides' splits. When both readers are
// non-nil, per-tile loads are sampled from the data and hot keyblocks
// re-tiled; otherwise the base partition+ layout is kept.
func Build(q *query.Query, opts Options, readerA, readerB coords.RecordReader, splitsA, splitsB []coords.Slab) (*Plan, error) {
	if q == nil || !q.Join {
		return nil, fmt.Errorf("join: not a join query")
	}
	op, err := q.JoinOp()
	if err != nil {
		return nil, err
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil, err
	}
	if opts.Reducers < 1 {
		return nil, fmt.Errorf("join: need at least one reducer, got %d", opts.Reducers)
	}
	maxSkew := opts.MaxSkew
	if maxSkew <= 0 {
		maxSkew = partition.DefaultMaxSkew
	}
	pp, err := partition.NewPartitionPlus(space, opts.Reducers, maxSkew, nil)
	if err != nil {
		return nil, err
	}

	var loads, loadsA, loadsB []int64
	if readerA != nil && readerB != nil && space.Size() <= maxSampledTiles {
		loadsA = make([]int64, space.Size())
		loadsB = make([]int64, space.Size())
		// The sides are sampled at once, B on a goroutine of its own: the
		// reads are independent, and a reader is safe for concurrent calls.
		var errB error
		doneB := make(chan struct{})
		go func() {
			defer close(doneB)
			errB = sampleSide(q, space, q.Input2, readerB, splitsB, loadsB)
		}()
		errA := sampleSide(q, space, q.Input, readerA, splitsA, loadsA)
		<-doneB
		if errA != nil {
			return nil, fmt.Errorf("join: sampling side A: %w", errA)
		}
		if errB != nil {
			return nil, fmt.Errorf("join: sampling side B: %w", errB)
		}
		loads = make([]int64, space.Size())
		for i := range loads {
			loads[i] = loadsA[i] + loadsB[i]
		}
	}

	var units []joinUnit
	if loads == nil || opts.NoRetile {
		units = make([]joinUnit, len(pp.Blocks))
		for i, b := range pp.Blocks {
			units[i] = joinUnit{Lo: b.Lo, Hi: b.Hi}
		}
	} else {
		units = retile(q, pp.Blocks, loads, loadsA, loadsB, opts.Reducers, maxSkew, op.NeedsSamples())
	}
	rt := Retile{Units: units}
	if loads != nil {
		rt.EstLoads = estLoads(q, units, loads, loadsA, loadsB)
	}
	return Rebuild(q, len(splitsA), rt)
}

// Rebuild reconstructs a plan from recorded re-tiling decisions —
// clustered workers call this with the Retile shipped in the job plan
// and never re-sample.
func Rebuild(q *query.Query, sideBoundary int, rt Retile) (*Plan, error) {
	if q == nil || !q.Join {
		return nil, fmt.Errorf("join: not a join query")
	}
	op, err := q.JoinOp()
	if err != nil {
		return nil, err
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil, err
	}
	if len(rt.Units) == 0 {
		return nil, fmt.Errorf("join: plan has no keyblock units")
	}
	p := &Plan{
		Q:            q,
		Op:           op,
		Space:        space,
		SideBoundary: sideBoundary,
		Units:        rt.Units,
		EstLoads:     rt.EstLoads,
		shares:       make(map[int64][]int),
	}
	for i, u := range p.Units {
		if u.shared() {
			k, err := space.Linearize(u.Tile)
			if err != nil {
				return nil, fmt.Errorf("join: share tile %v outside keyspace: %w", u.Tile, err)
			}
			p.shares[k] = append(p.shares[k], i)
		} else {
			p.rangeLo = append(p.rangeLo, u.Lo)
			p.rangeIdx = append(p.rangeIdx, i)
		}
	}
	for _, ids := range p.shares {
		sort.Slice(ids, func(a, b int) bool { return p.Units[ids[a]].OffLo < p.Units[ids[b]].OffLo })
	}
	return p, nil
}

// Retiling returns the serializable re-tiling record for the plan.
func (p *Plan) Retiling() Retile { return Retile{Units: p.Units, EstLoads: p.EstLoads} }

// NumKeyblocks returns the keyblock count.
func (p *Plan) NumKeyblocks() int { return len(p.Units) }

// SpillRank is the coordinate rank of spill keys: the keyspace rank plus
// the trailing side bit.
func (p *Plan) SpillRank() int { return p.Space.Rank() + 1 }

// Side returns which input the combined split index reads (0 = A).
func (p *Plan) Side(split int) int {
	if split < p.SideBoundary {
		return 0
	}
	return 1
}

// sideInput returns the given side's input slab.
func (p *Plan) sideInput(side int) coords.Slab {
	if side == 0 {
		return p.Q.Input
	}
	return p.Q.Input2
}

// rangeUnit resolves the plain unit owning K'-linear offset k; callers
// guarantee k is not a carved (shared) tile.
func (p *Plan) rangeUnit(k int64) int {
	return p.rangeIdx[p.rangeFrom(0, k)]
}

// rangeFrom returns the index into rangeLo of the plain unit owning k,
// searching forward from index i. Keys met in ascending order — a box's
// keys in cell order — resolve in amortised constant time.
func (p *Plan) rangeFrom(i int, k int64) int {
	if i+1 < len(p.rangeLo) && p.rangeLo[i+1] <= k {
		i += sort.Search(len(p.rangeLo)-i-1, func(j int) bool { return p.rangeLo[i+1+j] > k })
	}
	return i
}

// Partitioner adapts the plan to the partition.Partitioner interface:
// the Map kernel routes plain keys through it, as do task ordering and
// diagnostics. Shared tiles resolve to their first share; the Map kernel
// routes their cells by carvedCells instead.
func (p *Plan) Partitioner() partition.Partitioner { return planPartitioner{p} }

type planPartitioner struct{ p *Plan }

func (pp planPartitioner) Name() string      { return "join-retile" }
func (pp planPartitioner) NumKeyblocks() int { return len(pp.p.Units) }
func (pp planPartitioner) Partition(kp coords.Coord) (int, error) {
	k, err := pp.p.Space.Linearize(kp)
	if err != nil {
		return 0, err
	}
	if ids, ok := pp.p.shares[k]; ok {
		return ids[0], nil
	}
	return pp.p.rangeUnit(k), nil
}

// Keyblocks renders the units as partition.Keyblock ranges for plan
// introspection; share units collapse to their tile's single-key range.
func (p *Plan) Keyblocks() []partition.Keyblock {
	out := make([]partition.Keyblock, len(p.Units))
	for i, u := range p.Units {
		kb := partition.Keyblock{Index: i, Lo: u.Lo, Hi: u.Hi}
		if u.shared() {
			k, err := p.Space.Linearize(u.Tile)
			if err == nil {
				kb.Lo, kb.Hi = k, k+1
			}
		}
		out[i] = kb
	}
	return out
}

// BuildGraph derives the dependency graph: for every split of both
// sides, the geometric contribution to each keyblock (replication
// included), then I_ℓ as the union across sides. The Map kernel's fold
// annotates spills with the points it visits, which is exactly this
// count, so the §3.2.1 tally holds exactly.
func BuildGraph(p *Plan, splitsA, splitsB []coords.Slab) (*depgraph.Graph, error) {
	var points []int64
	return depgraph.New(len(splitsA)+len(splitsB), len(p.Units), func(i int, counts []int64) error {
		side, split := 0, coords.Slab{}
		if i < len(splitsA) {
			split = splitsA[i]
		} else {
			side, split = 1, splitsB[i-len(splitsA)]
		}
		live, ok := split.Intersect(p.sideInput(side))
		if !ok {
			return nil
		}
		var err error
		if points, err = routeCounts(p, side, live, points, counts); err != nil {
			return fmt.Errorf("join: split %d: %w", i, err)
		}
		return nil
	})
}

// routeCounts adds to counts, indexed by unit, the geometric source-pair
// count of one side's live region: one odometer walk over the region's
// key box adds each key's points (TileWalk.CellPoints) to its plain
// unit; a carved tile's points go to its shares by their offset bounds
// (addHeavy), so the heavy side splits its overlap by cell offset and
// the light side's reaches every share whole. It is a pure function of
// the plan and the region, independent of data content: the planner's
// expectation of what the Map kernel's fold visits. The per-cell points
// are written into points, grown only when its capacity is short, and
// returned for the next call.
func routeCounts(p *Plan, side int, live coords.Slab, points, counts []int64) ([]int64, error) {
	walk, err := p.Q.Extraction.Walk(p.Q.Extraction.KeyBox(live, p.Space))
	if err != nil {
		return points, err
	}
	points, _ = walk.CellPoints(live, points)
	box := walk.Box
	carved, err := p.carvedCells(box, side)
	if err != nil {
		return points, err
	}
	var kpBuf [coords.MaxRank]int64
	kp := coords.Coord(kpBuf[:box.Rank()])
	copy(kp, box.Corner)
	r := 0
	for cell, n := range points {
		if n > 0 {
			if shares := carved[int64(cell)]; shares != nil {
				p.addHeavy(kp, shares, live, counts)
			} else {
				k, err := p.Space.Linearize(kp)
				if err != nil {
					return points, err
				}
				r = p.rangeFrom(r, k)
				counts[p.rangeIdx[r]] += n
			}
		}
		box.Advance(kp)
	}
	return points, nil
}

// carvedCells maps the cells of box that are carved tiles to their shares
// as the given side routes them: the heavy side's shares keep their units'
// offset bounds, and the light side is replicated, every share taking the
// whole tile. It is nil when box holds no carved tile.
func (p *Plan) carvedCells(box coords.Slab, side int) (map[int64][]mapkernel.Share, error) {
	var carved map[int64][]mapkernel.Share
	for k, ids := range p.shares {
		kp, err := p.Space.Delinearize(k)
		if err != nil {
			return nil, err
		}
		cell, err := box.Linearize(kp)
		if err != nil {
			continue
		}
		if carved == nil {
			carved = make(map[int64][]mapkernel.Share)
		}
		shares := make([]mapkernel.Share, len(ids))
		for i, id := range ids {
			u := p.Units[id]
			shares[i] = mapkernel.Share{KB: id, OffHi: p.Q.Extraction.Shape.Size()}
			if side == u.Heavy {
				shares[i].OffLo, shares[i].OffHi = u.OffLo, u.OffHi
			}
		}
		carved[cell] = shares
	}
	return carved, nil
}

// addHeavy adds to counts the points of live inside carved tile kp, each
// to every share whose bounds hold its row-major cell offset in the tile:
// the heavy side's shares partition the tile, the light side's each hold
// it whole. Along an innermost line of the overlap the offsets are one
// contiguous range, so a line is cut at the shares' bounds rather than
// walked point by point.
func (p *Plan) addHeavy(kp coords.Coord, shares []mapkernel.Share, live coords.Slab, counts []int64) {
	e := p.Q.Extraction
	st := e.EffectiveStride()
	var loBuf, hiBuf, curBuf [coords.MaxRank]int64
	lo, hi, cur := loBuf[:len(kp)], hiBuf[:len(kp)], curBuf[:len(kp)]
	for d := range kp {
		t := kp[d] * st[d]
		lo[d] = max(t, live.Corner[d], 0)
		hi[d] = min(t+e.Shape[d], live.Corner[d]+live.Shape[d])
		if lo[d] >= hi[d] {
			return
		}
	}
	last := len(kp) - 1
	width := hi[last] - lo[last]
	copy(cur, lo)
	for {
		var off int64
		for d := range cur {
			off = off*e.Shape[d] + cur[d] - kp[d]*st[d]
		}
		for _, sh := range shares {
			if a, b := max(off, sh.OffLo), min(off+width, sh.OffHi); a < b {
				counts[sh.KB] += b - a
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			if cur[d]++; cur[d] < hi[d] {
				break
			}
			cur[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}
