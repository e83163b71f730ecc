package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/ops"
)

// reduceBlock is a random keyblock's streams as Map tasks or decoded
// spills deliver them, with where their samples lie: every window is cut
// from arena, followed by a sentinel, and keeps the capacity that runs to
// the arena's end, so an append into a window would overwrite the
// sentinel. windows lists, per key, the [at, at+n) range of every pair
// that brings the key samples.
type reduceBlock struct {
	streams [][]kv.Pair
	arena   []float64
	windows map[int][][2]int
}

// sentinel marks the array slot just past every sample window.
var sentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

// randomReduceBlock builds a keyblock of 1–8 streams over 32 keys. An
// on-grid keyblock puts every key in one stream; an off-grid one lets a
// key straddle 2–3 streams. A key's part in a stream is one pair, or —
// as a decoded singleton stream has it — a run of pairs under one key
// slice with one sample each; one pair in eight holds no point at all
// (Count 0). Sums have full mantissas, so reassociating them changes
// bits. The shapes are counted into seen.
func randomReduceBlock(rng *rand.Rand, samples bool, st kv.Stats, seen map[string]int) reduceBlock {
	b := reduceBlock{streams: make([][]kv.Pair, 1+rng.Intn(8)), arena: make([]float64, 0, 1<<13), windows: map[int][][2]int{}}
	onGrid := rng.Intn(2) == 0
	value := func(k, n int) kv.Value {
		var v kv.Value
		if rng.Intn(8) == 0 {
			seen["count 0"]++
			return v
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e3
		}
		v.AddRun(xs, st, false)
		if samples {
			at := len(b.arena)
			if at+n+1 > cap(b.arena) {
				panic("sample array too small")
			}
			b.arena = append(append(b.arena, xs...), sentinel)
			v.Samples = b.arena[at : at+n]
			b.windows[k] = append(b.windows[k], [2]int{at, at + n})
		}
		return v
	}
	for k := 0; k < 32; k++ {
		parts := 1
		if !onGrid && len(b.streams) > 1 && rng.Intn(2) == 0 {
			parts = 2 + rng.Intn(min(len(b.streams), 3)-1)
			seen[fmt.Sprintf("%d streams", parts)]++
		}
		for _, s := range rng.Perm(len(b.streams))[:parts] {
			key := coords.NewCoord(int64(k/8), int64(k%8))
			if rng.Intn(4) == 0 {
				seen["repeated"]++
				for n := 2 + rng.Intn(3); n > 0; n-- {
					b.streams[s] = append(b.streams[s], kv.Pair{Key: key, Value: value(k, 1)})
				}
				continue
			}
			b.streams[s] = append(b.streams[s], kv.Pair{Key: key, Value: value(k, 1+rng.Intn(6))})
		}
	}
	return b
}

// deepCopy copies the streams' pairs and samples; keys stay shared.
func deepCopy(streams [][]kv.Pair) [][]kv.Pair {
	cp := make([][]kv.Pair, len(streams))
	for s, ps := range streams {
		cp[s] = slices.Clone(ps)
		for i := range cp[s] {
			cp[s][i].Value.Samples = slices.Clone(ps[i].Value.Samples)
		}
	}
	return cp
}

// pairHeader renders a pair without its samples' values: its key, its
// statistics by Float64bits and where its sample window lies.
func pairHeader(p kv.Pair) string {
	v := p.Value
	s := fmt.Sprintf("%v %x %x %x %x n=%d len=%d cap=%d", p.Key, math.Float64bits(v.Sum), math.Float64bits(v.SumSq),
		math.Float64bits(v.Min), math.Float64bits(v.Max), v.Count, len(v.Samples), cap(v.Samples))
	if len(v.Samples) > 0 {
		s += fmt.Sprintf(" at=%p", &v.Samples[0])
	}
	return s
}

// sortedBits returns xs' Float64bits in ascending order: its multiset.
func sortedBits(xs []float64) []uint64 {
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	slices.Sort(bits)
	return bits
}

// TestExecReduceReadsStreamsInPlace holds execReduce over a keyblock's
// streams to the operator applied per key of kv.MergeSorted over a deep
// copy of them, by key and Float64bits, for every registered single-input
// operator on on-grid and off-grid keyblocks, and checks what the Reduce
// leaves of its streams: every pair is as it was, and so is every sample
// except in the window of a key whose samples one pair brings, which the
// operator may reorder but must leave holding the same values. No
// sentinel past a window is ever written, and every row is cap-clipped,
// so appending to one cannot reach a stream. Some window must have been
// reordered, or nothing was read in place.
func TestExecReduceReadsStreamsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	seen := map[string]int{}
	for _, name := range opNames {
		param := map[string]string{"filter_gt": " param 0", "filter_lt": " param 0",
			"filter_range": " param -500,500", "percentile": " param 30"}[name]
		q := mustParse(t, fmt.Sprintf("%s v[0,0 : 32,64] es {8,8}%s", name, param))
		op, err := q.Op()
		if err != nil {
			t.Fatal(err)
		}
		in := MapInput{Query: q, Op: op}
		for iter := 0; iter < 200; iter++ {
			b := randomReduceBlock(rng, op.NeedsSamples(), op.Stats(), seen)
			headers := make([][]string, len(b.streams))
			for s, ps := range b.streams {
				for _, p := range ps {
					headers[s] = append(headers[s], pairHeader(p))
				}
			}
			whole := slices.Clone(b.arena)
			merged := kv.MergeSorted(deepCopy(b.streams))

			got := execReduce(in, 7, b.streams)

			var wantK []coords.Coord
			var wantV [][]float64
			for _, p := range merged {
				vals := op.Apply(p.Value, q.Params()...)
				if op.Kind() == ops.Filter && len(vals) == 0 {
					continue
				}
				wantK, wantV = append(wantK, p.Key), append(wantV, vals)
			}
			if got.Keyblock != 7 {
				t.Fatalf("%s: keyblock %d", name, got.Keyblock)
			}
			if g, w := rowBits(got.Keys, got.Values), rowBits(wantK, wantV); g != w {
				t.Fatalf("%s iter %d: streams read in place\n%s\nmerged first\n%s", name, iter, g, w)
			}
			for i, vals := range got.Values {
				if len(vals) != cap(vals) {
					t.Fatalf("%s: row %v has %d values in a window of %d", name, got.Keys[i], len(vals), cap(vals))
				}
			}
			seen[name] += len(got.Keys)

			for s, ps := range b.streams {
				for i, p := range ps {
					if h := pairHeader(p); h != headers[s][i] {
						t.Fatalf("%s stream %d pair %d: %s became %s", name, s, i, headers[s][i], h)
					}
				}
			}
			inPlace := make([]bool, len(b.arena))
			for _, ws := range b.windows {
				if len(ws) != 1 {
					continue
				}
				w := ws[0]
				if !slices.Equal(sortedBits(b.arena[w[0]:w[1]]), sortedBits(whole[w[0]:w[1]])) {
					t.Fatalf("%s: window %v read in place now holds %v, was %v", name, w, b.arena[w[0]:w[1]], whole[w[0]:w[1]])
				}
				if !slices.Equal(b.arena[w[0]:w[1]], whole[w[0]:w[1]]) {
					seen["reordered in place"]++
				}
				for j := w[0]; j < w[1]; j++ {
					inPlace[j] = true
				}
			}
			for j, x := range b.arena {
				if !inPlace[j] && math.Float64bits(x) != math.Float64bits(whole[j]) {
					t.Fatalf("%s: sample array written at %d: %x, was %x", name, j, math.Float64bits(x), math.Float64bits(whole[j]))
				}
			}
		}
	}
	for _, shape := range append([]string{"2 streams", "3 streams", "repeated", "count 0", "reordered in place"}, opNames...) {
		if seen[shape] == 0 {
			t.Errorf("no %s case was generated: %v", shape, seen)
		}
	}
}

// rowBits renders Reduce rows by key and Float64bits.
func rowBits(keys []coords.Coord, values [][]float64) string {
	s := fmt.Sprintf("%d rows", len(keys))
	for i, k := range keys {
		s += fmt.Sprintf("\n%v", k)
		for _, x := range values[i] {
			s += fmt.Sprintf(" %x", math.Float64bits(x))
		}
	}
	return s
}
