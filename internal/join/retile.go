package join

import (
	"math"

	"sidr/internal/coords"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// sampleStride is the plan-time sampling factor: every sampleStride-th
// leading-dimension row of each split is read and each present (non-NaN)
// cell contributes sampleStride to its tile's estimated load. Fixed and
// deterministic, so the coordinator and an in-process run derive the
// same re-tiling from the same data.
const sampleStride = 16

// sampleSide accumulates one side's estimated per-tile load into loads
// (indexed by K'-linear offset in space). It reads every sampleStride-th
// leading-dimension row of each split's live region in one read, and
// counts each line's present cells span by span. Every sampled row of a
// split has the same innermost extent, so the split's spans are cut once
// — at rank 1, where a row is one point of that extent, once per row.
func sampleSide(q *query.Query, space, input coords.Slab, reader coords.RecordReader, splits []coords.Slab, loads []int64) error {
	walk, err := q.Extraction.Walk(space)
	if err != nil {
		return err
	}
	var spans []coords.Span
	count := func(base, _ int64, line []float64) error {
		for _, sp := range spans {
			var n int64
			for _, v := range line[sp.Lo:sp.Hi] {
				if !math.IsNaN(v) { // missing cells carry no load
					n++
				}
			}
			loads[base+sp.Cell] += n * sampleStride
		}
		return nil
	}
	var vals []float64
	for _, split := range splits {
		row, ok := split.Intersect(input)
		if !ok {
			continue
		}
		// row steps through every sampleStride-th leading-dimension row
		// of the split's live region.
		end := row.Corner[0] + row.Shape[0]
		row.Shape[0] = 1
		spans = walk.Spans(row, spans[:0])
		for ; row.Corner[0] < end; row.Corner[0] += sampleStride {
			if row.Rank() == 1 {
				spans = walk.Spans(row, spans[:0])
			}
			if vals, err = reader.ReadSlabInto(row, vals); err != nil {
				return err
			}
			if err := walk.Lines(row, vals, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadBound derives the tolerated per-keyblock expected load: no better
// than the mean over reducers is achievable, and MaxSkew (partition+'s
// skew-tolerance knob, here in sampled pairs) raises the bound when the
// operator tolerates coarser balance.
func loadBound(total int64, reducers int, maxSkew int64) int64 {
	target := total / int64(reducers)
	if target < 1 {
		target = 1
	}
	if maxSkew > target {
		return maxSkew
	}
	return target
}

// retile re-tiles the base partition+ layout against sampled loads: a
// block whose load exceeds the bound is split into load-weighted
// contiguous sub-ranges, and a single tile heavier than the bound is
// carved into SharesSkew shares (heavy side cell-partitioned, light side
// replicated) — unless the operator needs raw samples, in which case the
// tile stays whole (sub-aggregates would lose positional alignment) and
// becomes its own range.
func retile(q *query.Query, blocks []partition.Keyblock, loads, loadsA, loadsB []int64, reducers int, maxSkew int64, needSamples bool) []joinUnit {
	var total int64
	for _, l := range loads {
		total += l
	}
	bound := loadBound(total, reducers, maxSkew)
	tileSize := q.Extraction.Shape.Size()

	var units []joinUnit
	// emitRange splits [lo, hi) into load-weighted contiguous chunks of
	// at most bound estimated load each.
	emitRange := func(lo, hi int64) {
		if lo >= hi {
			return
		}
		var load int64
		for k := lo; k < hi; k++ {
			load += loads[k]
		}
		m := int64(1)
		if load > bound {
			m = (load + bound - 1) / bound
		}
		if m > hi-lo {
			m = hi - lo // at most one unit per tile
		}
		start, acc, part := lo, int64(0), int64(1)
		for k := lo; k < hi; k++ {
			acc += loads[k]
			// Cut after tile k once this part's share of the load is met,
			// keeping at least one tile per remaining part.
			if part < m && acc*m >= load*part && (hi-k-1) >= (m-part) {
				units = append(units, joinUnit{Lo: start, Hi: k + 1})
				start = k + 1
				part++
			}
		}
		units = append(units, joinUnit{Lo: start, Hi: hi})
	}
	emitShares := func(k int64) {
		s := (loads[k] + bound - 1) / bound
		if s > int64(reducers) {
			s = int64(reducers)
		}
		if s > tileSize {
			s = tileSize
		}
		if s < 2 {
			s = 2
		}
		heavy := 0
		if loadsB[k] > loadsA[k] {
			heavy = 1
		}
		kp, err := spaceDelin(q, k)
		if err != nil {
			// Unreachable for in-range k; keep the tile whole.
			units = append(units, joinUnit{Lo: k, Hi: k + 1})
			return
		}
		for i := int64(0); i < s; i++ {
			units = append(units, joinUnit{
				Lo: k, Hi: k + 1, Tile: kp,
				OffLo: tileSize * i / s, OffHi: tileSize * (i + 1) / s,
				Heavy: heavy,
			})
		}
	}

	for _, b := range blocks {
		cursor := b.Lo
		if !needSamples {
			for k := b.Lo; k < b.Hi; k++ {
				if loads[k] > bound && tileSize > 1 {
					emitRange(cursor, k)
					emitShares(k)
					cursor = k + 1
				}
			}
		}
		emitRange(cursor, b.Hi)
	}
	return units
}

func spaceDelin(q *query.Query, k int64) (coords.Coord, error) {
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil, err
	}
	return space.Delinearize(k)
}

// estLoads computes the per-unit estimated load: a plain range sums its
// tiles; a share takes its offset-proportional slice of the heavy side
// plus the whole replicated light side.
func estLoads(q *query.Query, units []joinUnit, loads, loadsA, loadsB []int64) []int64 {
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil
	}
	tileSize := q.Extraction.Shape.Size()
	out := make([]int64, len(units))
	for i, u := range units {
		if !u.shared() {
			var sum int64
			for k := u.Lo; k < u.Hi; k++ {
				sum += loads[k]
			}
			out[i] = sum
			continue
		}
		k, err := space.Linearize(u.Tile)
		if err != nil {
			continue
		}
		heavy, light := loadsA[k], loadsB[k]
		if u.Heavy == 1 {
			heavy, light = light, heavy
		}
		out[i] = heavy*(u.OffHi-u.OffLo)/tileSize + light
	}
	return out
}
