package join

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/ops"
)

// MapOut is one keyblock's share of a join Map task's output: sorted
// pairs keyed [kp..., side] plus the §3.2.1 source-count annotation. The
// annotation is geometric (routeCounts) — independent of data content —
// so the reduce-side tally validates transport completeness exactly even
// though NaN cells are never accumulated.
type MapOut struct {
	Pairs       []kv.Pair
	SourceCount int64
}

// mapScratch is the state a join Map task reuses from the last one: the
// batch buffer, the per-cell points and the dense tile of plain-unit
// accumulators. Every tile cell is zero between tasks — the seal zeroes
// it, because a cell's Samples is a window that escapes into the pairs.
type mapScratch struct {
	vals   []float64
	points []int64
	tile   []kv.Value
}

var scratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

// samplesChunk is how many floats a join Map task allocates at a time
// for sample windows. A window is carved on its cell's first present
// value, so a mostly missing side pays for the cells it fills, not for
// its geometry.
const samplesChunk = 16 << 10

// ExecMap runs one join Map task: read the split's live region on the
// given side in row batches, fold every run of present cells into its
// tile's aggregate (skipping NaN missing cells), and emit side-tagged
// sorted pairs per keyblock. It is a client of the same batch reader,
// run decomposition and geometry as the single-input Map kernel: one
// routeCounts pass yields both the per-unit annotation and the points
// reaching each key, which size a key's sample window exactly. Plain
// units accumulate in one dense tile over the split's K' box; a carved
// tile's heavy side splits each run at its shares' offset boundaries and
// its light side folds the run into every share. The returned slice is
// indexed by keyblock; the second return value is the number of source
// records that mapped into the join keyspace.
func ExecMap(p *Plan, side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) ([]MapOut, int64, error) {
	outs := make([]MapOut, len(p.Units))
	live, ok := split.Intersect(p.SideInput(side))
	if !ok {
		return outs, 0, nil
	}
	s := scratchPool.Get().(*mapScratch)
	records, err := s.execMap(p, side, reader, live, ctx, outs)
	if err != nil {
		return nil, 0, err // the tile may hold live cells: drop the scratch
	}
	scratchPool.Put(s)
	return outs, records, nil
}

// execMap is ExecMap's body over the split's live region: it fills outs
// and returns the record count.
func (s *mapScratch) execMap(p *Plan, side int, reader coords.RecordReader, live coords.Slab, ctx context.Context, outs []MapOut) (int64, error) {
	counts := make([]int64, len(p.Units))
	g, err := routeCounts(p, side, live, s.points, counts)
	if err != nil {
		return 0, err
	}
	s.points = g.points
	for kb, n := range counts {
		outs[kb].SourceCount = n
	}

	box := g.walk.Box
	if cells := box.Size(); int64(cap(s.tile)) < cells {
		s.tile = make([]kv.Value, cells)
	} else {
		s.tile = s.tile[:cells]
	}
	tile, points, carved := s.tile, g.points, g.carved
	needSamples := p.Op.NeedsSamples()
	var shareAcc []kv.Value
	if carved != nil {
		shareAcc = make([]kv.Value, len(p.Units))
	}
	var arena []float64 // the current chunk of sample windows
	fold := func(cell, off int64, run []float64) error {
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
			case n == 0: // the run resumes on a missing cell
			case ids == nil:
				v := &tile[cell]
				if needSamples && v.Samples == nil {
					// The cell's first present value: carve a window of
					// every point that can reach it, so AddRun never
					// regrows it.
					w := points[cell]
					if int64(len(arena)) < w {
						arena = make([]float64, max(w, samplesChunk))
					}
					v.Samples, arena = arena[:0:w], arena[w:]
				}
				v.AddRun(present, needSamples)
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
			// A missing stretch is skipped whole.
			for n < len(run) && math.IsNaN(run[n]) {
				n++
			}
			run, off = run[n:], off+int64(n)
		}
		return nil
	}
	s.vals, err = coords.ReadBatches(ctx, reader, live, s.vals, func(batch coords.Slab, vals []float64) error {
		return g.walk.Runs(batch, vals, fold)
	})
	if err != nil {
		return 0, err
	}
	if err := s.seal(p, side, box, outs); err != nil {
		return 0, err
	}
	for id := range shareAcc {
		if shareAcc[id].Count > 0 {
			key := append(p.Units[id].Tile.Clone(), int64(side))
			outs[id].Pairs = []kv.Pair{{Key: key, Value: shareAcc[id]}}
		}
	}
	return g.total, nil
}

// seal publishes every live cell of the tile as one side-tagged pair and
// zeroes it; no other cell was touched. A plain unit owns a contiguous
// row-major range of K', and the walk meets the box's keys in that
// order: each unit's pairs are one stretch of a single sorted slice,
// their keys carved from one array.
func (s *mapScratch) seal(p *Plan, side int, box coords.Slab, outs []MapOut) error {
	tile := s.tile
	n := 0
	for i := range tile {
		if tile[i].Count > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	rank := p.Space.Rank()
	pairs, keyArena := make([]kv.Pair, 0, n), make([]int64, n*(rank+1))
	var kpBuf [coords.MaxRank]int64
	kp := coords.Coord(kpBuf[:rank])
	copy(kp, box.Corner)
	unit, start, r := -1, 0, 0
	for cell := range tile {
		if v := &tile[cell]; v.Count > 0 {
			k, err := p.Space.Linearize(kp)
			if err != nil {
				return err
			}
			r = p.rangeFrom(r, k)
			if u := p.rangeIdx[r]; u != unit {
				if unit >= 0 {
					outs[unit].Pairs = pairs[start:len(pairs):len(pairs)]
				}
				unit, start = u, len(pairs)
			}
			key := coords.Coord(keyArena[: rank+1 : rank+1])
			keyArena = keyArena[rank+1:]
			key[copy(key, kp)] = int64(side)
			pairs = append(pairs, kv.Pair{Key: key, Value: *v})
			*v = kv.Value{}
		}
		box.Advance(kp)
	}
	outs[unit].Pairs = pairs[start:]
	return nil
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
