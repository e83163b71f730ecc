// Package depgraph computes the Map↔Reduce data-dependency relation SIDR
// schedules with (§3.2): which keyblocks each input split contributes
// intermediate data to, and — inverted — the set I_ℓ of splits each
// keyblock ℓ depends on. A Reduce task may start as soon as every split
// in its I_ℓ has been processed, instead of waiting on the global
// MapReduce barrier.
//
// The package also computes the expected source-pair count per keyblock,
// backing the kv-count-annotation barrier (the paper's §3.2.1
// "approach 2", which SIDR implements to validate approach 1).
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
	// SplitPoints[i] is the number of source points in split i that fall
	// inside the query input (and inside extraction tiles, for strided
	// queries).
	SplitPoints []int64
}

// Build computes the dependency graph for the query over the given
// splits under the given partitioner. Splits are slabs in the input
// keyspace K. Splits that fall entirely outside the query input (or
// entirely in stride gaps) contribute to no keyblock and get an empty
// dependency list.
func Build(q *query.Query, splits []coords.Slab, p partition.Partitioner) (*Graph, error) {
	if q == nil || p == nil {
		return nil, fmt.Errorf("depgraph: nil query or partitioner")
	}
	r := p.NumKeyblocks()
	g := &Graph{
		SplitToKB:     make([][]int, len(splits)),
		KBToSplits:    make([][]int, r),
		ExpectedCount: make([]int64, r),
		SplitPoints:   make([]int64, len(splits)),
	}
	stride := q.Extraction.EffectiveStride()
	for i, split := range splits {
		in, ok := split.Intersect(q.Input)
		if !ok {
			continue
		}
		tiles, err := q.Extraction.TileRange(in)
		if err != nil {
			// The split's live region sits entirely inside stride gaps.
			continue
		}
		touched := make(map[int]int64) // keyblock -> source pairs from this split
		var iterErr error
		tiles.EachReuse(func(kp coords.Coord) bool {
			n := overlapSize(q.Extraction.Shape, stride, kp, in)
			if n == 0 {
				return true // strided gap tile grazed by TileRange bounds
			}
			kb, err := p.Partition(kp)
			if err != nil {
				iterErr = err
				return false
			}
			touched[kb] += n
			return true
		})
		if iterErr != nil {
			return nil, fmt.Errorf("depgraph: split %d: %w", i, iterErr)
		}
		kbs := make([]int, 0, len(touched))
		for kb, n := range touched {
			kbs = append(kbs, kb)
			g.ExpectedCount[kb] += n
			g.SplitPoints[i] += n
		}
		sortInts(kbs)
		g.SplitToKB[i] = kbs
	}
	// Invert.
	for i, kbs := range g.SplitToKB {
		for _, kb := range kbs {
			g.KBToSplits[kb] = append(g.KBToSplits[kb], i)
		}
	}
	return g, nil
}

// overlapSize is the number of points of in that the tile of intermediate
// key kp covers — Extraction.Tile(kp) ∩ in, sized per dimension without
// building either slab: a paper-scale plan visits millions of tiles.
func overlapSize(es, stride coords.Shape, kp coords.Coord, in coords.Slab) int64 {
	n := int64(1)
	for d, k := range kp {
		lo := max(k*stride[d], in.Corner[d])
		hi := min(k*stride[d]+es[d], in.Corner[d]+in.Shape[d])
		if hi <= lo {
			return 0
		}
		n *= hi - lo
	}
	return n
}

// Builder accumulates per-(split, keyblock) source-pair contributions
// and finalizes them into a Graph. Multi-input planners (internal/join)
// use it to derive I_ℓ as the union of contributing splits across all
// inputs, with splits addressed in one combined index space.
type Builder struct {
	contribs []map[int]int64
	numKB    int
}

// NewBuilder returns a builder for the given split and keyblock counts.
func NewBuilder(numSplits, numKeyblocks int) *Builder {
	return &Builder{contribs: make([]map[int]int64, numSplits), numKB: numKeyblocks}
}

// Add records n source pairs flowing from split to keyblock kb.
func (b *Builder) Add(split, kb int, n int64) {
	if n <= 0 {
		return
	}
	m := b.contribs[split]
	if m == nil {
		m = make(map[int]int64)
		b.contribs[split] = m
	}
	m[kb] += n
}

// Graph finalizes the accumulated contributions.
func (b *Builder) Graph() *Graph {
	g := &Graph{
		SplitToKB:     make([][]int, len(b.contribs)),
		KBToSplits:    make([][]int, b.numKB),
		ExpectedCount: make([]int64, b.numKB),
		SplitPoints:   make([]int64, len(b.contribs)),
	}
	for i, touched := range b.contribs {
		kbs := make([]int, 0, len(touched))
		for kb, n := range touched {
			kbs = append(kbs, kb)
			g.ExpectedCount[kb] += n
			g.SplitPoints[i] += n
		}
		sortInts(kbs)
		g.SplitToKB[i] = kbs
	}
	for i, kbs := range g.SplitToKB {
		for _, kb := range kbs {
			g.KBToSplits[kb] = append(g.KBToSplits[kb], i)
		}
	}
	return g
}

// NumSplits returns the split count.
func (g *Graph) NumSplits() int { return len(g.SplitToKB) }

// NumKeyblocks returns the keyblock count.
func (g *Graph) NumKeyblocks() int { return len(g.KBToSplits) }

// Deps returns I_ℓ for keyblock l.
func (g *Graph) Deps(l int) []int { return g.KBToSplits[l] }

// MapOrder returns a Map execution order that completes keyblocks in the
// given priority order (nil: ascending keyblock id): the dependencies of
// keyblock priority[0] first, then the unprocessed dependencies of
// priority[1], and so on, with any remaining splits appended. The job
// loop takes it as Config.MapOrder to realise SIDR's reduce-first
// scheduling (§3.3) without a slot model.
func (g *Graph) MapOrder(priority []int) []int {
	if priority == nil {
		priority = make([]int, g.NumKeyblocks())
		for i := range priority {
			priority[i] = i
		}
	}
	order := make([]int, 0, g.NumSplits())
	taken := make([]bool, g.NumSplits())
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
	return int64(g.NumSplits()) * int64(g.NumKeyblocks())
}

// TotalPoints returns the total number of source pairs across all
// keyblocks; it must equal the query input size for dense extractions.
func (g *Graph) TotalPoints() int64 {
	var n int64
	for _, c := range g.ExpectedCount {
		n += c
	}
	return n
}

// sortInts is insertion sort: dependency lists per split are small and
// nearly sorted (map iteration aside), so this avoids pulling in
// sort.Ints allocations in the hot planning loop.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
