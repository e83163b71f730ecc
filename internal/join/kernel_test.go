package join

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/kv"
)

// refExecMap is the per-point join Map body the batch kernel replaced,
// kept verbatim as the differential oracle: one callback per source
// point, a keyblock→key→value map of maps, Delinearize and a sort at the
// end. ExecMap must reproduce its output bit for bit.
func refExecMap(p *Plan, side int, reader coords.RecordReader, split coords.Slab, ctx context.Context) ([]MapOut, int64, error) {
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
	err = eachPoint(reader, live, func(c coords.Coord, v float64) error {
		if seen&63 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		seen++
		kp, mapped := p.Q.Extraction.MapKeyInto(c, kpBuf)
		if kp != nil {
			kpBuf = kp[:0]
		}
		if !mapped || !p.Space.Contains(kp) {
			return nil
		}
		records++
		if math.IsNaN(v) {
			return nil // missing cell: counted by the annotation, never aggregated
		}
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
		switch {
		case curIDs == nil:
			acc(p.rangeUnit(k), k).Add(v, needSamples)
		case curHeavy:
			off, err := curTile.Linearize(c)
			if err != nil {
				return err
			}
			acc(p.shareByOffset(k, off), k).Add(v, needSamples)
		default:
			for _, id := range curIDs {
				acc(id, k).Add(v, needSamples)
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
			pairs = append(pairs, kv.Pair{Key: key, Value: *val})
		}
		kv.SortPairs(pairs)
		outs[kb].Pairs = pairs
	}
	return outs, records, nil
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
					splits, err := p.SideInput(side).SplitDim(0, rows)
					if err != nil {
						t.Fatal(err)
					}
					for si, split := range splits {
						label := fmt.Sprintf("%s %s side %d rows %d split %d", tc.name, opName, side, rows, si)
						want, wantRecords, err := refExecMap(p, side, funcReader{fn}, split, nil)
						if err != nil {
							t.Fatalf("%s: oracle: %v", label, err)
						}
						got, gotRecords, err := ExecMap(p, side, funcReader{fn}, split, nil)
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
				}
			}
		}
	}
}
