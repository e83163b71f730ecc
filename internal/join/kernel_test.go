package join

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/mapkernel"
	"sidr/internal/query"
)

// addPoint folds one observation into v, every statistic included: the
// per-point definition of each statistic, which the Map kernel's
// kv.Value.AddRun must reproduce bit for bit.
func addPoint(v *kv.Value, x float64, keepSample bool) {
	if v.Count == 0 {
		v.Min, v.Max = x, x
	} else {
		if x < v.Min {
			v.Min = x
		}
		if x > v.Max {
			v.Max = x
		}
	}
	v.Sum += x
	v.SumSq += x * x
	v.Count++
	if keepSample {
		v.Samples = append(v.Samples, x)
	}
}

// refExecMap is the per-point join Map body the batch kernel replaced,
// kept as the differential oracle: one callback per source point, a
// keyblock→key→value map of maps, Delinearize and a sort at the end.
// Its §3.2.1 annotation is counted point by point too — a point mapped
// into the keyspace counts once for its plain unit, once for the share
// owning its offset on a carved tile's heavy side, once for every share
// on the light side; a stride-gap point counts for no unit — so the
// geometry ExecMap counts from is held against the points. It folds
// every statistic and then sets the ones the operator does not declare
// to +0, as the kernel leaves them. ExecMap must reproduce its output
// bit for bit.
func refExecMap(p *Plan, side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) ([]MapOut, int64, error) {
	outs := make([]MapOut, len(p.Units))
	live, ok := split.Intersect(p.sideInput(side))
	if !ok {
		return outs, 0, nil
	}

	needSamples := p.Op.NeedsSamples()
	rank := p.Space.Rank()
	accums := make(map[int]map[int64]*kv.Value) // keyblock -> K'-linear -> agg
	acc := func(kb int, k int64) *kv.Value {
		m := accums[kb]
		if m == nil {
			m = make(map[int64]*kv.Value)
			accums[kb] = m
		}
		v := m[k]
		if v == nil {
			v = &kv.Value{}
			m[k] = v
		}
		return v
	}

	var (
		curKey   int64 = -1
		curIDs   []int
		curHeavy bool
		curTile  coords.Slab
	)
	kpBuf := make(coords.Coord, 0, rank)
	var records, seen int64
	err := eachPoint(reader, live, func(c coords.Coord, v float64) error {
		if seen&63 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		seen++
		kp, mapped := mapKey(p.Q.Extraction, c, kpBuf)
		if kp != nil {
			kpBuf = kp[:0]
		}
		if !mapped || !slabContains(p.Space, kp) {
			return nil
		}
		records++
		k, err := p.Space.Linearize(kp)
		if err != nil {
			return err
		}
		if k != curKey {
			curKey = k
			curIDs, curHeavy = nil, false
			if ids, shared := p.shares[k]; shared {
				curIDs = ids
				curHeavy = side == p.Units[ids[0]].Heavy
				if curTile, err = p.Q.Extraction.Tile(kp); err != nil {
					return err
				}
			}
		}
		// A missing cell is counted by the annotation, never aggregated.
		present := !math.IsNaN(v)
		switch {
		case curIDs == nil:
			kb := p.rangeUnit(k)
			outs[kb].SourceCount++
			if present {
				addPoint(acc(kb, k), v, needSamples)
			}
		case curHeavy:
			off, err := curTile.Linearize(c)
			if err != nil {
				return err
			}
			kb := p.shareByOffset(k, off)
			outs[kb].SourceCount++
			if present {
				addPoint(acc(kb, k), v, needSamples)
			}
		default:
			for _, id := range curIDs {
				outs[id].SourceCount++
				if present {
					addPoint(acc(id, k), v, needSamples)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	for kb, m := range accums {
		pairs := make([]kv.Pair, 0, len(m))
		for k, val := range m {
			kp, err := p.Space.Delinearize(k)
			if err != nil {
				return nil, 0, err
			}
			key := append(kp, int64(side))
			pairs = append(pairs, kv.Pair{Key: key, Value: declared(*val, p.Op.Stats())})
		}
		slices.SortFunc(pairs, func(a, b kv.Pair) int { return a.Key.Compare(b.Key) })
		outs[kb].Pairs = pairs
	}
	return outs, records, nil
}

// declared is v with every statistic outside st set to +0.
func declared(v kv.Value, st kv.Stats) kv.Value {
	if st&kv.StatSum == 0 {
		v.Sum = 0
	}
	if st&kv.StatSumSq == 0 {
		v.SumSq = 0
	}
	if st&kv.StatMinMax == 0 {
		v.Min, v.Max = 0, 0
	}
	return v
}

// shareByOffset resolves the share unit owning cell offset off of the
// shared tile with linear key k, one point at a time.
func (p *Plan) shareByOffset(k, off int64) int {
	ids := p.shares[k]
	for _, id := range ids {
		if off >= p.Units[id].OffLo && off < p.Units[id].OffHi {
			return id
		}
	}
	return ids[len(ids)-1]
}

// eachPoint is the record stream the per-point kernel consumed.
func eachPoint(r coords.RecordReader, slab coords.Slab, emit func(coords.Coord, float64) error) error {
	vals, err := r.ReadSlabInto(slab, nil)
	if err != nil {
		return err
	}
	i := 0
	slab.EachReuse(func(k coords.Coord) bool {
		err = emit(k, vals[i])
		i++
		return err == nil
	})
	return err
}

// noisy is a full-mantissa pseudo-random field — a reassociated sum
// changes low bits — with about one cell in seven missing.
func noisy(k coords.Coord) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range k {
		h ^= uint64(x) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	if h%7 == 0 {
		return nan()
	}
	return (float64(h>>11)/float64(1<<53) - 0.5) * 1e3
}

// hotNoisy concentrates the load in the first tile, so the planner carves
// it into shares; elsewhere it is mostly missing.
func hotNoisy(k coords.Coord) float64 {
	if (k[0] < 8 && k[1] < 8) || (3*k[0]+k[1])%29 == 0 {
		return noisy(k)
	}
	return nan()
}

// thinNoisy is sparse everywhere: the light side of a carved tile.
func thinNoisy(k coords.Coord) float64 {
	if (k[0]+2*k[1])%17 == 0 {
		return noisy(k)
	}
	return nan()
}

func pairBits(p kv.Pair) string {
	s := fmt.Sprintf("%v %x %x %x %x n=%d", p.Key, math.Float64bits(p.Value.Sum), math.Float64bits(p.Value.SumSq),
		math.Float64bits(p.Value.Min), math.Float64bits(p.Value.Max), p.Value.Count)
	if p.Value.Samples == nil {
		s += " nil"
	}
	for _, x := range p.Value.Samples {
		s += fmt.Sprintf(" %x", math.Float64bits(x))
	}
	return s
}

// TestJoinMapKernelMatchesPerPointOracle holds the batch join kernel
// against the per-point oracle on plain and carved plans, dense and
// strided tilings, both sides, every join operator, NaN cells and split
// sizes that cut tiles: records, annotations, keys and every kv.Value
// field equal by math.Float64bits.
func TestJoinMapKernelMatchesPerPointOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		query  string // %s is the operator
		a, b   func(coords.Coord) float64
		opts   Options
		carved bool
	}{
		{name: "plain", query: "join %s a[0,0 : 40,24] es {8,8} with b[0,0 : 40,24] es {8,8}",
			a: noisy, b: noisy, opts: Options{Reducers: 3}},
		{name: "plain-corners", query: "join %s a[8,0 : 40,32] es {8,4} with b[16,8 : 48,24] es {8,4}",
			a: noisy, b: noisy, opts: Options{Reducers: 4}},
		{name: "plain-strided", query: "join %s a[0,0 : 44,30] es {3,4} stride {5,6} with b[0,0 : 44,30] es {3,4} stride {5,6}",
			a: noisy, b: noisy, opts: Options{Reducers: 3}},
		{name: "carved-heavy-a", query: "join %s a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}",
			a: hotNoisy, b: thinNoisy, opts: Options{Reducers: 4, MaxSkew: 8}, carved: true},
		{name: "carved-heavy-b", query: "join %s a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}",
			a: thinNoisy, b: hotNoisy, opts: Options{Reducers: 4, MaxSkew: 8}, carved: true},
	} {
		for _, opName := range []string{"jsum", "javg", "jcorr"} {
			q := mustQuery(t, fmt.Sprintf(tc.query, opName))
			splitsA, splitsB := bandSplits(t, q.Input, 4), bandSplits(t, q.Input2, 4)
			p, err := Build(q, tc.opts, funcReader{tc.a}, funcReader{tc.b}, splitsA, splitsB)
			if err != nil {
				t.Fatal(err)
			}
			// Holistic jcorr never carves (sub-aggregates would lose
			// positional alignment); the distributive operators must.
			if carved := len(p.shares) > 0; carved != (tc.carved && opName != "jcorr") {
				t.Fatalf("%s %s: carved tiles = %t — the case no longer tests what it names", tc.name, opName, carved)
			}
			for side, fn := range []func(coords.Coord) float64{tc.a, tc.b} {
				for _, rows := range []int64{3, 8, 13, 64} {
					splits, err := p.sideInput(side).SplitDim(0, rows)
					if err != nil {
						t.Fatal(err)
					}
					for si, split := range splits {
						label := fmt.Sprintf("%s %s side %d rows %d split %d", tc.name, opName, side, rows, si)
						matchOracle(t, label, p, side, funcReader{fn}, split)
					}
				}
			}
		}
	}
}

// matchOracle runs ExecMap and refExecMap on one split and requires
// equal records, annotations, keys and every kv.Value field by
// math.Float64bits, samples included.
func matchOracle(t *testing.T, label string, p *Plan, side int, r coords.RecordReader, split coords.Slab) {
	t.Helper()
	want, wantRecords, err := refExecMap(p, side, r, split, nil)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got, gotRecords, err := ExecMap(p, side, r, split, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if gotRecords != wantRecords || len(got) != len(want) {
		t.Fatalf("%s: %d records in %d keyblocks, oracle %d in %d", label, gotRecords, len(got), wantRecords, len(want))
	}
	for kb := range want {
		if got[kb].SourceCount != want[kb].SourceCount || len(got[kb].Pairs) != len(want[kb].Pairs) {
			t.Fatalf("%s kb %d: annotation %d with %d pairs, oracle %d with %d", label, kb,
				got[kb].SourceCount, len(got[kb].Pairs), want[kb].SourceCount, len(want[kb].Pairs))
		}
		for i := range want[kb].Pairs {
			if g, w := pairBits(got[kb].Pairs[i]), pairBits(want[kb].Pairs[i]); g != w {
				t.Fatalf("%s kb %d pair %d:\n got    %s\n oracle %s", label, kb, i, g, w)
			}
		}
	}
}

// FuzzJoinMapKernel drives the join Map kernel and the per-point oracle
// with fuzzed rank-2 joins — both sides' corners and shapes, extraction
// shape and stride, missing-cell density, a hot corner that makes the
// planner carve, reducers, MaxSkew, split rows per side and the operator
// — and requires identical output on every split of both sides.
func FuzzJoinMapKernel(f *testing.F) {
	// Plain dense, strided with offset corners, carved heavy A with a thin
	// side B, carved heavy B, jcorr over a mostly missing side.
	f.Add([]byte{0, 0, 0, 0, 39, 23, 39, 23, 7, 7, 0, 0, 4, 0, 2, 0, 0, 7, 7, 0})
	f.Add([]byte{3, 5, 9, 2, 41, 31, 30, 37, 2, 3, 2, 2, 4, 4, 2, 0, 0, 3, 4, 1})
	f.Add([]byte{0, 0, 0, 0, 63, 31, 63, 31, 7, 7, 0, 0, 31, 31, 3, 1, 16, 15, 12, 0})
	f.Add([]byte{0, 0, 0, 0, 63, 31, 63, 31, 7, 7, 0, 0, 31, 31, 3, 2, 16, 12, 15, 1})
	f.Add([]byte{0, 0, 0, 0, 47, 31, 47, 31, 15, 15, 0, 0, 0, 30, 7, 0, 32, 13, 5, 2})
	ops := []string{"jsum", "javg", "jcorr"}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 20 {
			return
		}
		var corner, shape [2][2]int64
		var es, stride [2]int64
		for d := 0; d < 2; d++ {
			corner[0][d], corner[1][d] = int64(b[d])%12, int64(b[2+d])%12
			shape[0][d], shape[1][d] = int64(b[4+d])%64+1, int64(b[6+d])%64+1
			es[d] = int64(b[8+d])%16 + 1
			stride[d] = es[d] + int64(b[10+d])%4
		}
		op := ops[int(b[19])%len(ops)]
		src := fmt.Sprintf("join %s a[%d,%d : %d,%d] es {%d,%d} stride {%d,%d} with b[%d,%d : %d,%d] es {%d,%d} stride {%d,%d}",
			op, corner[0][0], corner[0][1], shape[0][0], shape[0][1], es[0], es[1], stride[0], stride[1],
			corner[1][0], corner[1][1], shape[1][0], shape[1][1], es[0], es[1], stride[0], stride[1])
		q, err := query.Parse(src)
		if err != nil {
			return // no join keyspace: the tile ranges miss each other or a side sits in stride gaps
		}
		// Side s is missing in about b[12+s]/32 of its cells outside its
		// hot corner — the first tile's extent from the origin, when bit s
		// of b[15] is set — so carving has a heavy tile to find.
		fields := [2]func(coords.Coord) float64{}
		for s := range fields {
			density, hot := uint64(b[12+s]%32), b[15]&(1<<s) != 0
			fields[s] = func(k coords.Coord) float64 {
				v := noisy(k)
				if hot && k[0] < es[0] && k[1] < es[1] {
					return v
				}
				if uint64(math.Float64bits(v))%32 < density {
					return nan()
				}
				return v
			}
		}
		rows := [2]int64{int64(b[17])%shape[0][0] + 1, int64(b[18])%shape[1][0] + 1}
		splitsA, err := q.Input.SplitDim(0, rows[0])
		if err != nil {
			t.Fatal(err)
		}
		splitsB, err := q.Input2.SplitDim(0, rows[1])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Reducers: int(b[14])%5 + 1, MaxSkew: int64(b[16]>>1) % 32, NoRetile: b[16]&1 != 0}
		p, err := Build(q, opts, funcReader{fields[0]}, funcReader{fields[1]}, splitsA, splitsB)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for side, splits := range [][]coords.Slab{splitsA, splitsB} {
			for si, split := range splits {
				matchOracle(t, fmt.Sprintf("%s %+v side %d split %d", src, opts, side, si), p, side, funcReader{fields[side]}, split)
			}
		}
	})
}

// TestJoinMapAllocsFlatInTiles holds the join Map and the dependency
// graph to a per-task allocation count that does not grow with the
// tiles a split covers: the geometry is counted in one walk over the
// key box, with no slab per tile, and sample windows come from the Map
// kernel's scratch.
func TestJoinMapAllocsFlatInTiles(t *testing.T) {
	allocs := func(es int) (execMap, graph float64) {
		q := mustQuery(t, fmt.Sprintf("join jcorr a[0,0 : 64,64] es {%d,%d} with b[0,0 : 64,64] es {%d,%d}", es, es, es, es))
		splits := []coords.Slab{q.Input}
		p, err := Build(q, Options{Reducers: 4}, funcReader{dense}, funcReader{dense}, splits, splits)
		if err != nil {
			t.Fatal(err)
		}
		// One scratch, warmed, stands in for the pool, which drops
		// entries at random under the race detector.
		r, s := sliceReader(q.Input, dense), &mapkernel.Scratch{}
		run := func() {
			if _, _, err := mapkernel.Exec(p.MapTask(0, r, q.Input, nil), s); err != nil {
				t.Fatal(err)
			}
		}
		run()
		execMap = testing.AllocsPerRun(20, run)
		graph = testing.AllocsPerRun(20, func() {
			if _, err := BuildGraph(p, splits, splits); err != nil {
				t.Fatal(err)
			}
		})
		return execMap, graph
	}
	m16, g16 := allocs(16) // 16 tiles
	m256, g256 := allocs(4)
	t.Logf("ExecMap %v → %v allocations, BuildGraph %v → %v, 16 → 256 tiles", m16, m256, g16, g256)
	if m256 > m16 || g256 > g16 {
		t.Fatalf("allocations grow with the tile count: ExecMap %v → %v, BuildGraph %v → %v", m16, m256, g16, g256)
	}
}

// TestJoinMapSampleWindows checks the windows a sample-keeping join Map
// ships: a missing cell is a value the selection drops, so the kernel
// copies each key's kept values out, and every plain pair's samples have
// exactly the capacity of the values it holds. No two windows share
// memory.
func TestJoinMapSampleWindows(t *testing.T) {
	q := mustQuery(t, "join jcorr a[3,5 : 45,37] es {3,4} stride {5,6} with b[9,2 : 40,40] es {3,4} stride {5,6}")
	splitsA, splitsB := bandSplits(t, q.Input, 6), bandSplits(t, q.Input2, 6)
	p, err := Build(q, Options{Reducers: 3}, funcReader{noisy}, funcReader{thinNoisy}, splitsA, splitsB)
	if err != nil {
		t.Fatal(err)
	}
	for side, splits := range [][]coords.Slab{splitsA, splitsB} {
		fn := []func(coords.Coord) float64{noisy, thinNoisy}[side]
		for si, split := range splits {
			outs, _, err := ExecMap(p, side, funcReader{fn}, split, nil)
			if err != nil {
				t.Fatal(err)
			}
			type window struct{ lo, hi uintptr }
			var windows []window
			for _, o := range outs {
				for _, pr := range o.Pairs {
					s := pr.Value.Samples
					if cap(s) != len(s) {
						t.Fatalf("side %d split %d key %v: window of %d floats for %d samples", side, si, pr.Key, cap(s), len(s))
					}
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
					windows = append(windows, window{lo, lo + uintptr(cap(s))*8})
				}
			}
			sort.Slice(windows, func(i, j int) bool { return windows[i].lo < windows[j].lo })
			for i := 1; i < len(windows); i++ {
				if windows[i].lo < windows[i-1].hi {
					t.Fatalf("side %d split %d: sample windows overlap", side, si)
				}
			}
		}
	}
}
