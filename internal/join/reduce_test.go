package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/kv"
)

// reduceBits renders a Reduce output by key and Float64bits.
func reduceBits(keys []coords.Coord, values [][]float64) string {
	s := fmt.Sprintf("%d rows", len(keys))
	for i, k := range keys {
		s += fmt.Sprintf("\n%v", k)
		for _, x := range values[i] {
			s += fmt.Sprintf(" %x", math.Float64bits(x))
		}
	}
	return s
}

// randomKeyblock builds side-tagged streams for keyblock l of p as Map
// tasks would ship them: 1–4 sorted streams per side, side A's first. Each
// side of each key is, at random, absent, held by one pair, straddling
// 2–3 streams, or repeated inside one stream under one key slice, as a
// decoded spill repeats it; some pairs hold no present cell. Sums have
// full mantissas, so reassociating them changes bits. Sample windows are
// cut from one array without clipping their capacity, so an append into
// a window would overwrite its neighbour. The shapes are counted into
// seen.
func randomKeyblock(rng *rand.Rand, p *Plan, l int, arena []float64, seen map[string]int) [][]kv.Pair {
	unit := p.Units[l]
	lo, hi := unit.Lo, unit.Hi
	if unit.shared() {
		lo, _ = p.Space.Linearize(unit.Tile)
		hi = lo + 1
	}
	n := [2]int{1 + rng.Intn(4), 1 + rng.Intn(4)}
	streams := make([][]kv.Pair, n[0]+n[1])
	value := func() kv.Value {
		var v kv.Value
		if rng.Intn(8) == 0 {
			return v // every cell of the key missing on this split
		}
		xs := make([]float64, 1+rng.Intn(5))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e3
		}
		v.AddRun(xs, kv.StatSum, false)
		if p.Op.NeedsSamples() {
			at := len(arena)
			if at+len(xs) > cap(arena) {
				panic("sample array too small")
			}
			arena = append(arena, xs...)
			v.Samples = arena[at : at+len(xs)]
		}
		return v
	}
	for k := lo; k < hi; k++ {
		kp, err := p.Space.Delinearize(k)
		if err != nil {
			panic(err)
		}
		sides := 0
		for side := 0; side < 2; side++ {
			key := append(slices.Clone(kp), int64(side))
			base := side * n[0]
			switch c := rng.Intn(6); {
			case c == 0:
				continue
			case c == 1 && n[side] > 1:
				parts := 2 + rng.Intn(min(n[side], 3)-1)
				seen["straddling"]++
				for _, s := range rng.Perm(n[side])[:parts] {
					streams[base+s] = append(streams[base+s], kv.Pair{Key: key, Value: value()})
				}
			case c == 2:
				s := base + rng.Intn(n[side])
				seen["repeated"]++
				streams[s] = append(streams[s], kv.Pair{Key: key, Value: value()}, kv.Pair{Key: key, Value: value()})
			default:
				s := base + rng.Intn(n[side])
				streams[s] = append(streams[s], kv.Pair{Key: key, Value: value()})
			}
			sides++
		}
		if sides == 1 {
			seen["one side"]++
		}
	}
	return streams
}

// TestJoinReduceReadsStreamsInPlace holds Reduce over a keyblock's
// streams to Reduce over their kv.MergeSorted merge, by key and
// Float64bits, for every join operator on plain units and on the shares
// of a carved tile — keys straddling streams, keys repeated inside one,
// keys on one side only — and checks that neither call writes a stream:
// every pair, and the whole array its sample windows are cut from, are
// bit for bit as they were.
func TestJoinReduceReadsStreamsInPlace(t *testing.T) {
	base := mustQuery(t, "join jsum a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}")
	splits := bandSplits(t, base.Input, 16)
	carved, err := Build(base, Options{Reducers: 4, MaxSkew: 8}, funcReader{hotNoisy}, funcReader{thinNoisy}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(carved.shares) == 0 {
		t.Fatal("the plan carved no tile")
	}
	rng := rand.New(rand.NewSource(49))
	seen := map[string]int{}
	for _, op := range []string{"jcorr", "jsum", "javg"} {
		q := mustQuery(t, fmt.Sprintf("join %s a[0,0 : 64,32] es {8,8} with b[0,0 : 64,32] es {8,8}", op))
		p, err := Rebuild(q, carved.SideBoundary, carved.Retiling())
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 40; iter++ {
			for l, u := range p.Units {
				arena := make([]float64, 0, 1<<14)
				streams := randomKeyblock(rng, p, l, arena, seen)
				before := make([]string, 0, 64)
				for _, ps := range streams {
					for _, pr := range ps {
						before = append(before, pairBits(pr))
					}
				}
				whole := slices.Clone(arena[:cap(arena)])

				gotK, gotV := Reduce(p, l, streams...)
				wantK, wantV := Reduce(p, l, kv.MergeSorted(streams))
				if got, want := reduceBits(gotK, gotV), reduceBits(wantK, wantV); got != want {
					t.Fatalf("%s unit %d %+v: streams read in place\n%s\nmerged first\n%s", op, l, u, got, want)
				}
				if u.shared() {
					seen["share unit"]++
				}
				seen[op] += len(gotK)

				i := 0
				for s, ps := range streams {
					for _, pr := range ps {
						if got := pairBits(pr); got != before[i] {
							t.Fatalf("%s unit %d stream %d: pair %s became %s", op, l, s, before[i], got)
						}
						i++
					}
				}
				for j, x := range arena[:cap(arena)] {
					if math.Float64bits(x) != math.Float64bits(whole[j]) {
						t.Fatalf("%s unit %d: sample array written at %d", op, l, j)
					}
				}
			}
		}
	}
	for _, shape := range []string{"straddling", "repeated", "one side", "share unit", "jcorr", "jsum", "javg"} {
		if seen[shape] == 0 {
			t.Errorf("no %s case was generated: %v", shape, seen)
		}
	}
}
