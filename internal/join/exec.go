package join

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/ops"
)

// MapOut is one keyblock's share of a join Map task's output: sorted
// pairs keyed [kp..., side] plus the §3.2.1 source-count annotation. The
// annotation is geometric (RouteCounts) — independent of data content —
// so the reduce-side tally validates transport completeness exactly even
// though NaN cells are never accumulated.
type MapOut struct {
	Pairs       []kv.Pair
	SourceCount int64
}

// ExecMap runs one join Map task: read the split's live region on the
// given side in row batches, fold every run of present cells into its
// tile's aggregate (skipping NaN missing cells), and emit side-tagged
// sorted pairs per keyblock. It is a client of the same batch reader and
// run decomposition as the single-input Map kernel: plain units
// accumulate in one dense tile over the split's K' box; a carved tile's
// heavy side splits each run at its shares' offset boundaries and its
// light side folds the run into every share. The returned slice is
// indexed by keyblock; the second return value is the number of source
// records that mapped into the join keyspace.
func ExecMap(p *Plan, side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) ([]MapOut, int64, error) {
	outs := make([]MapOut, len(p.Units))
	live, ok := split.Intersect(p.SideInput(side))
	if !ok {
		return outs, 0, nil
	}
	counts, err := RouteCounts(p, side, live)
	if err != nil {
		return nil, 0, err
	}
	for kb, n := range counts {
		outs[kb].SourceCount = n
	}

	box := p.Q.Extraction.KeyBox(live, p.Space)
	walk, err := p.Q.Extraction.Walk(box)
	if err != nil {
		return nil, 0, err
	}
	needSamples := p.Op.NeedsSamples()
	tile := make([]kv.Value, box.Size()) // plain units, by cell of box
	shareAcc := make([]kv.Value, len(p.Units))
	// carved maps the cells of box that are carved tiles to their shares.
	var carved map[int64][]int
	for k, ids := range p.shares {
		kp, err := p.Space.Delinearize(k)
		if err != nil {
			return nil, 0, err
		}
		if cell, err := box.Linearize(kp); err == nil {
			if carved == nil {
				carved = make(map[int64][]int)
			}
			carved[cell] = ids
		}
	}

	var records int64
	fold := func(cell, off int64, run []float64) error {
		records += int64(len(run))
		var ids []int
		if carved != nil {
			ids = carved[cell]
		}
		// Missing cells break the run: they are counted by the
		// annotation, never aggregated.
		for len(run) > 0 {
			n := 0
			for n < len(run) && !math.IsNaN(run[n]) {
				n++
			}
			present := run[:n]
			switch {
			case n == 0:
				n = 1 // skip the missing cell
			case ids == nil:
				tile[cell].AddRun(present, needSamples)
			case side == p.Units[ids[0]].Heavy:
				// The shares partition the tile's offsets [0, size).
				for _, id := range ids {
					a, b := max(off, p.Units[id].OffLo), min(off+int64(n), p.Units[id].OffHi)
					if a < b {
						shareAcc[id].AddRun(present[a-off:b-off], needSamples)
					}
				}
			default:
				for _, id := range ids {
					shareAcc[id].AddRun(present, needSamples)
				}
			}
			run, off = run[n:], off+int64(n)
		}
		return nil
	}
	_, err = coords.ReadBatches(ctx, reader, live, nil, func(batch coords.Slab, vals []float64) error {
		return walk.Runs(batch, vals, fold)
	})
	if err != nil {
		return nil, 0, err
	}

	// A plain unit owns a contiguous row-major range of K', and the walk
	// below meets the box's keys in that order: each unit's pairs are one
	// stretch of a single sorted slice.
	n := 0
	for i := range tile {
		if tile[i].Count > 0 {
			n++
		}
	}
	rank := p.Space.Rank()
	pairs, keyArena := make([]kv.Pair, 0, n), make([]int64, n*(rank+1))
	unit, start, cell := -1, 0, 0
	box.EachReuse(func(kp coords.Coord) bool {
		if v := &tile[cell]; v.Count > 0 {
			k, lerr := p.Space.Linearize(kp)
			if err = lerr; err != nil {
				return false
			}
			if u := p.rangeUnit(k); u != unit {
				if unit >= 0 {
					outs[unit].Pairs = pairs[start:len(pairs):len(pairs)]
				}
				unit, start = u, len(pairs)
			}
			key := coords.Coord(keyArena[: rank+1 : rank+1])
			keyArena = keyArena[rank+1:]
			key[copy(key, kp)] = int64(side)
			pairs = append(pairs, kv.Pair{Key: key, Value: *v})
		}
		cell++
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	if unit >= 0 {
		outs[unit].Pairs = pairs[start:]
	}
	for id := range shareAcc {
		if shareAcc[id].Count > 0 {
			key := append(p.Units[id].Tile.Clone(), int64(side))
			outs[id].Pairs = []kv.Pair{{Key: key, Value: shareAcc[id]}}
		}
	}
	return outs, records, nil
}

// Reduce evaluates keyblock l from its fully merged side-tagged pairs.
// Plain units pair both sides per tile and emit final rows; share units
// emit one partial row per tile — [heavySum, heavyCount, lightSum,
// lightCount] — that Assemble folds across the tile's shares.
func Reduce(p *Plan, l int, merged []kv.Pair) (keys []coords.Coord, values [][]float64) {
	rank := p.Space.Rank()
	unit := p.Units[l]
	flush := func(kp coords.Coord, vA, vB *kv.Value) {
		if kp == nil {
			return
		}
		if unit.Shared() {
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
			keys = append(keys, kp)
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
			keys = append(keys, kp)
			values = append(values, out)
		}
	}
	var kp coords.Coord
	var vA, vB *kv.Value
	for i := range merged {
		pr := &merged[i]
		tile := pr.Key[:rank]
		if kp == nil || !coordEqual(kp, tile) {
			flush(kp, vA, vB)
			kp = append(coords.Coord(nil), tile...)
			vA, vB = nil, nil
		}
		if pr.Key[rank] == 0 {
			vA = &pr.Value
		} else {
			vB = &pr.Value
		}
	}
	flush(kp, vA, vB)
	return keys, values
}

func coordEqual(a, b coords.Coord) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	sort.Slice(out, func(i, j int) bool { return coordLess(out[i].Key, out[j].Key) })
	return out, nil
}

func coordLess(a, b coords.Coord) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
