package join

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/mapkernel"
	"sidr/internal/ops"
)

// MapOut is one keyblock's share of a join Map task's output: pairs
// keyed [kp..., side], sorted, plus the §3.2.1 source-count annotation.
type MapOut = mapkernel.Out

// ExecMap runs one join Map task on the Map kernel: read the split's live
// region on the given side in row batches, fold every run of present
// cells into its key's aggregate, and emit side-tagged sorted pairs per
// keyblock. The returned slice is indexed by keyblock; the second return
// value is the number of source records that mapped into the join
// keyspace.
func ExecMap(p *Plan, side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) ([]MapOut, int64, error) {
	return mapkernel.Exec(p.MapTask(side, reader, split, ctx), nil)
}

// MapTask is a join Map task as the Map kernel runs it. What sets it
// apart from a single-input task is data: plain keys route through the
// plan's Partitioner; a carved tile's heavy side splits at its shares'
// offset bounds and its light side is replicated into every share
// (carvedCells); every key carries the side bit; and a missing (NaN)
// cell is a point the annotation counts but no observation (present).
func (p *Plan) MapTask(side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) mapkernel.Task {
	return mapkernel.Task{
		Reader:     reader,
		Split:      split,
		Input:      p.sideInput(side),
		Extraction: p.Q.Extraction,
		Space:      p.Space,
		Route: mapkernel.Router{Part: p.Partitioner(), Carved: func(box coords.Slab) (map[int64][]mapkernel.Share, error) {
			return p.carvedCells(box, side)
		}},
		Suffix:  []int64{int64(side)},
		Stats:   p.Op.Stats(),
		Samples: p.Op.NeedsSamples(),
		Keep:    present,
		Ctx:     ctx,
	}
}

// present is the join's value selection, with ops.Selector's contract: it
// appends the values of run that are not missing (NaN) to dst. It writes
// nothing for a missing value, so a mostly missing side leaves most of
// its windows untouched.
func present(dst, run []float64) []float64 {
	for _, x := range run {
		if x == x {
			dst = append(dst, x)
		}
	}
	return dst
}

// Reduce evaluates keyblock l from its side-tagged streams: each one Map
// task's sorted pairs for the keyblock, in ascending split order — or one
// stream that kv.MergeSorted already merged. Plain units pair both sides
// per tile and emit final rows; share units emit one partial row per tile
// — [heavySum, heavyCount, lightSum, lightCount] — that Assemble folds
// across the tile's shares.
//
// The streams are read where they lie (kv.EachKey) and never written: a
// key one pair holds is combined from that pair's value, its samples
// still the window the Map or a decoded spill left them in
// (ops.JoinOperator.Combine only reads them). Only a key whose samples
// come from several pairs is folded into the walk's arena.
func Reduce(p *Plan, l int, streams ...[]kv.Pair) (keys []coords.Coord, values [][]float64) {
	rank := p.Space.Rank()
	unit := p.Units[l]
	// kp is the open tile, the leading coordinates of a stream's key;
	// side[s] is its side s's value, nil while no pair of that side has
	// held it. A row's key is a copy of kp.
	var kp coords.Coord
	var side [2]*kv.Value
	var vals [2]kv.Value
	flush := func() {
		if kp == nil {
			return
		}
		vA, vB := side[0], side[1]
		if unit.shared() {
			h, li := vA, vB
			if unit.Heavy == 1 {
				h, li = vB, vA
			}
			var row [4]float64
			if h != nil {
				row[0], row[1] = h.Sum, float64(h.Count)
			}
			if li != nil {
				row[2], row[3] = li.Sum, float64(li.Count)
			}
			keys = append(keys, slices.Clone(kp))
			values = append(values, row[:])
			return
		}
		var a, b ops.SideAgg
		if vA != nil {
			a = ops.SideAgg{Sum: vA.Sum, Count: vA.Count, Samples: vA.Samples}
		}
		if vB != nil {
			b = ops.SideAgg{Sum: vB.Sum, Count: vB.Count, Samples: vB.Samples}
		}
		if out, ok := p.Op.Combine(a, b); ok {
			keys = append(keys, slices.Clone(kp))
			values = append(values, out)
		}
	}
	kv.EachKey(streams, func(key coords.Coord, v kv.Value) {
		if tile := key[:rank]; kp == nil || !kp.Equal(tile) {
			flush()
			kp, side = tile, [2]*kv.Value{}
		}
		s := 0
		if key[rank] != 0 {
			s = 1
		}
		vals[s] = v
		side[s] = &vals[s]
	})
	flush()
	return keys, values
}

// Row is one reduce-output row tagged with its keyblock, the unit of
// final result assembly.
type Row struct {
	KB     int
	Key    coords.Coord
	Values []float64
}

// Assemble folds share-unit partial rows into final rows — summing the
// heavy side's cell-partitioned moments across the tile's shares in
// ascending keyblock order and taking the replicated light side from the
// first share — then returns all rows sorted row-major by key. Both the
// in-process engine and the clustered coordinator assemble through this
// one function, so their results are byte-identical by construction.
func Assemble(p *Plan, rows []Row) ([]Row, error) {
	var out []Row
	partials := make(map[int64][]Row)
	for _, r := range rows {
		k, err := p.Space.Linearize(r.Key)
		if err != nil {
			return nil, fmt.Errorf("join: assembling row %v: %w", r.Key, err)
		}
		if _, shared := p.shares[k]; shared {
			partials[k] = append(partials[k], r)
			continue
		}
		out = append(out, r)
	}
	for _, shares := range partials {
		sort.Slice(shares, func(a, b int) bool { return shares[a].KB < shares[b].KB })
		unit := p.Units[shares[0].KB]
		var heavy, light ops.SideAgg
		for i, r := range shares {
			if len(r.Values) != 4 {
				return nil, fmt.Errorf("join: share row for tile %v has %d values, want 4", r.Key, len(r.Values))
			}
			heavy.Sum += r.Values[0]
			heavy.Count += int64(r.Values[1])
			if i == 0 {
				light.Sum, light.Count = r.Values[2], int64(r.Values[3])
			}
		}
		a, b := heavy, light
		if unit.Heavy == 1 {
			a, b = light, heavy
		}
		if vals, ok := p.Op.Combine(a, b); ok {
			out = append(out, Row{KB: shares[0].KB, Key: shares[0].Key, Values: vals})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out, nil
}
