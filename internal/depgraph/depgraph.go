// Package depgraph computes the Map↔Reduce data-dependency relation SIDR
// schedules with (§3.2): which keyblocks each input split contributes
// intermediate data to, and — inverted — the set I_ℓ of splits each
// keyblock ℓ depends on. A Reduce task may start as soon as every split
// in its I_ℓ has been processed, instead of waiting on the global
// MapReduce barrier.
//
// The graph also carries the expected source-pair count per keyblock,
// backing the kv-count-annotation barrier (the paper's §3.2.1
// "approach 2", which SIDR implements to validate approach 1).
//
// One constructor, New, fills a graph from per-split keyblock counts.
// Build supplies them for a single-input query from the same geometry
// the Map kernel scans with (coords.TileWalk: KeyBox, then CellPoints),
// so what the plan predicts and what a scan tallies come from one tiling
// mechanism; the join planner supplies its own routed counts.
package depgraph

import (
	"fmt"

	"sidr/internal/coords"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// Graph is the dependency relation for one query execution.
type Graph struct {
	// SplitToKB[i] lists, in ascending order, the keyblocks split i
	// produces data for.
	SplitToKB [][]int
	// KBToSplits[l] is I_ℓ: the splits keyblock l depends on, ascending.
	KBToSplits [][]int
	// ExpectedCount[l] is the number of source ⟨k,v⟩ pairs that map to
	// keyblock l — the tally target for the annotation barrier.
	ExpectedCount []int64
}

// New derives the graph over numSplits splits and numKeyblocks keyblocks
// from count, which adds to counts — indexed by keyblock, zero on every
// call — the source pairs split sends each keyblock. Splits are visited
// in ascending order and each one's counts in keyblock order, so both
// directions of the relation are filled ascending as they are met.
func New(numSplits, numKeyblocks int, count func(split int, counts []int64) error) (*Graph, error) {
	g := &Graph{
		SplitToKB:     make([][]int, numSplits),
		KBToSplits:    make([][]int, numKeyblocks),
		ExpectedCount: make([]int64, numKeyblocks),
	}
	counts := make([]int64, numKeyblocks)
	for i := range g.SplitToKB {
		if err := count(i, counts); err != nil {
			return nil, err
		}
		for kb, n := range counts {
			if n > 0 {
				g.SplitToKB[i] = append(g.SplitToKB[i], kb)
				g.KBToSplits[kb] = append(g.KBToSplits[kb], i)
				g.ExpectedCount[kb] += n
			}
		}
		clear(counts)
	}
	return g, nil
}

// Build computes the dependency graph for the query over the given
// splits under the given partitioner. Splits are slabs in the input
// keyspace K. It counts with the Map kernel's geometry: a split's live
// region (split ∩ input) reaches the box of K' keys KeyBox bounds, the
// run walk over that box says how many of its points reach each key
// (TileWalk.CellPoints), and each key with points is routed through the
// partitioner. Splits outside the query input, or wholly in stride gaps,
// contribute to no keyblock.
func Build(q *query.Query, splits []coords.Slab, p partition.Partitioner) (*Graph, error) {
	if q == nil || p == nil {
		return nil, fmt.Errorf("depgraph: nil query or partitioner")
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil, fmt.Errorf("depgraph: %w", err)
	}
	var points []int64
	var keyBuf [coords.MaxRank]int64
	return New(len(splits), p.NumKeyblocks(), func(i int, counts []int64) error {
		in, ok := splits[i].Intersect(q.Input)
		if !ok {
			return nil
		}
		walk, err := q.Extraction.Walk(q.Extraction.KeyBox(in, space))
		if err != nil {
			return fmt.Errorf("depgraph: split %d: %w", i, err)
		}
		points, _ = walk.CellPoints(in, points)
		key := coords.Coord(keyBuf[:walk.Box.Rank()])
		copy(key, walk.Box.Corner)
		for _, n := range points {
			if n > 0 {
				kb, err := p.Partition(key)
				if err != nil {
					return fmt.Errorf("depgraph: split %d: %w", i, err)
				}
				counts[kb] += n
			}
			walk.Box.Advance(key)
		}
		return nil
	})
}

// numSplits returns the split count.
func (g *Graph) numSplits() int { return len(g.SplitToKB) }

// numKeyblocks returns the keyblock count.
func (g *Graph) numKeyblocks() int { return len(g.KBToSplits) }

// MapOrder returns a Map execution order that completes keyblocks in the
// given priority order (nil: ascending keyblock id): the dependencies of
// keyblock priority[0] first, then the unprocessed dependencies of
// priority[1], and so on, with any remaining splits appended. The job
// loop takes it as Config.MapOrder to realise SIDR's reduce-first
// scheduling (§3.3) without a slot model.
func (g *Graph) MapOrder(priority []int) []int {
	if priority == nil {
		priority = make([]int, g.numKeyblocks())
		for i := range priority {
			priority[i] = i
		}
	}
	order := make([]int, 0, g.numSplits())
	taken := make([]bool, g.numSplits())
	for _, l := range priority {
		for _, m := range g.KBToSplits[l] {
			if !taken[m] {
				taken[m] = true
				order = append(order, m)
			}
		}
	}
	for i := range taken {
		if !taken[i] {
			order = append(order, i)
		}
	}
	return order
}

// SIDRConnections returns the total number of shuffle connections SIDR
// opens: each Reduce task contacts exactly the Map tasks in its I_ℓ
// (Table 3, SIDR column).
func (g *Graph) SIDRConnections() int64 {
	var n int64
	for _, deps := range g.KBToSplits {
		n += int64(len(deps))
	}
	return n
}

// HadoopConnections returns the total number of shuffle connections stock
// Hadoop opens: every Reduce task contacts every Map task (Table 3,
// Hadoop column).
func (g *Graph) HadoopConnections() int64 {
	return int64(g.numSplits()) * int64(g.numKeyblocks())
}
