package kv

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
)

// refMergeSorted is the pair-at-a-time heap merge MergeSorted replaced,
// kept verbatim as the reference: pop one pair, fold it into the output's
// last key or open a new one, fix the heap.
func refMergeSorted(streams [][]Pair) []Pair {
	type head struct {
		stream int
		idx    int
	}
	heads := make([]head, 0, len(streams))
	total := 0
	for s, ps := range streams {
		total += len(ps)
		if len(ps) > 0 {
			heads = append(heads, head{stream: s})
		}
	}
	if total == 0 {
		return nil
	}
	less := func(a, b head) bool {
		c := streams[a.stream][a.idx].Key.Compare(streams[b.stream][b.idx].Key)
		if c != 0 {
			return c < 0
		}
		return a.stream < b.stream
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heads) && less(heads[l], heads[m]) {
				m = l
			}
			if r < len(heads) && less(heads[r], heads[m]) {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Pair, 0, total)
	for len(heads) > 0 {
		h := heads[0]
		p := streams[h.stream][h.idx]
		if n := len(out); n > 0 && out[n-1].Key.Equal(p.Key) {
			out[n-1].Value.merge(p.Value)
		} else {
			out = append(out, Pair{Key: p.Key, Value: p.Value.Clone()})
		}
		if h.idx+1 < len(streams[h.stream]) {
			heads[0].idx++
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}

// TestMergeSortedRidesRunsBitIdentically: keys repeated inside a stream
// and across streams,
// with and without samples, special floats and sample-less pairs mixed
// into a sampled key — the run-draining merge returns what the
// pair-at-a-time reference returns: same keys, every Value field equal
// by Float64bits, samples in the same order, the same nil-ness of
// Samples, and nothing aliasing the inputs.
func TestMergeSortedRidesRunsBitIdentically(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-310}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		streams := make([][]Pair, 1+r.Intn(6))
		for s := range streams {
			var ps []Pair
			for k := int64(0); k < 12; k++ {
				if r.Intn(3) == 0 {
					continue // this stream skips the key
				}
				key := coords.NewCoord(k/4-1, k%4)
				for m := 1 + r.Intn(5); m > 0; m-- {
					x := r.NormFloat64() * 1e3
					if r.Intn(8) == 0 {
						x = specials[r.Intn(len(specials))]
					}
					var v Value
					switch r.Intn(4) {
					case 0:
						v = NewValue(x, false)
					case 1:
						v = Value{Samples: []float64{}} // Count 0: Merge skips it, Clone keeps it
					case 2:
						v.AddRun([]float64{x, -x, x / 3}, allStats, true)
					default:
						v = NewValue(x, true)
					}
					k := key
					if r.Intn(2) == 0 {
						k = key.Clone() // equal keys need not share a slice
					}
					ps = append(ps, Pair{Key: k, Value: v})
				}
			}
			streams[s] = ps
		}
		got, want := MergeSorted(streams), refMergeSorted(streams)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d keys, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if !g.Key.Equal(w.Key) || !valueBitsEqual(g.Value, w.Value) || (g.Value.Samples == nil) != (w.Value.Samples == nil) {
				t.Fatalf("seed %d key %d:\n got       %v %+v\n reference %v %+v", seed, i, g.Key, g.Value, w.Key, w.Value)
			}
		}
		for _, p := range got {
			for _, ps := range streams {
				for _, q := range ps {
					if len(p.Value.Samples) > 0 && len(q.Value.Samples) > 0 && &p.Value.Samples[0] == &q.Value.Samples[0] {
						t.Fatalf("seed %d: merged samples alias an input stream", seed)
					}
				}
			}
		}
	}
}

func TestMergeSortedEmpty(t *testing.T) {
	if got := MergeSorted(nil); got != nil {
		t.Fatalf("MergeSorted(nil) = %v", got)
	}
	if got := MergeSorted([][]Pair{{}, {}}); got != nil {
		t.Fatalf("MergeSorted(empties) = %v", got)
	}
}

func TestMergeSortedSingleStream(t *testing.T) {
	s := []Pair{
		{Key: coords.NewCoord(0), Value: NewValue(1, false)},
		{Key: coords.NewCoord(2), Value: NewValue(2, false)},
	}
	got := MergeSorted([][]Pair{s})
	if len(got) != 2 || !got[1].Key.Equal(coords.NewCoord(2)) {
		t.Fatalf("got %v", got)
	}
	// Must not alias inputs.
	got[0].Value.Add(99, false)
	if s[0].Value.Count != 1 {
		t.Fatal("MergeSorted aliased stream values")
	}
}

func TestMergeSortedInterleavedAndDuplicateKeys(t *testing.T) {
	a := []Pair{
		{Key: coords.NewCoord(0), Value: NewValue(1, false)},
		{Key: coords.NewCoord(4), Value: NewValue(4, false)},
	}
	b := []Pair{
		{Key: coords.NewCoord(0), Value: NewValue(10, false)},
		{Key: coords.NewCoord(2), Value: NewValue(2, false)},
		{Key: coords.NewCoord(4), Value: NewValue(40, false)},
	}
	got := MergeSorted([][]Pair{a, b})
	if len(got) != 3 {
		t.Fatalf("merged to %d keys: %v", len(got), got)
	}
	if got[0].Value.Sum != 11 || got[0].Value.Count != 2 {
		t.Fatalf("key 0 = %+v", got[0].Value)
	}
	if got[1].Value.Sum != 2 {
		t.Fatalf("key 2 = %+v", got[1].Value)
	}
	if got[2].Value.Sum != 44 {
		t.Fatalf("key 4 = %+v", got[2].Value)
	}
}

// TestQuickMergeSortedEqualsSortMerge: the k-way merge agrees with the
// naive concatenate→sort→merge pipeline for random sorted streams.
func TestQuickMergeSortedEqualsSortMerge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nStreams := r.Intn(6)
		streams := make([][]Pair, nStreams)
		var all []Pair
		for s := range streams {
			n := r.Intn(15)
			ps := make([]Pair, 0, n)
			for i := 0; i < n; i++ {
				key := coords.NewCoord(r.Int63n(8), r.Int63n(4))
				v := NewValue(r.NormFloat64(), r.Intn(2) == 0)
				ps = append(ps, Pair{Key: key, Value: v})
			}
			SortPairs(ps)
			streams[s] = ps
			for _, p := range ps {
				all = append(all, Pair{Key: p.Key, Value: p.Value.Clone()})
			}
		}
		got := MergeSorted(streams)
		want := sortMerge(all)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			// Sum is compared with a tolerance: float addition order
			// differs between the two merge strategies.
			if !got[i].Key.Equal(want[i].Key) ||
				got[i].Value.Count != want[i].Value.Count ||
				abs(got[i].Value.Sum-want[i].Value.Sum) > 1e-9 ||
				got[i].Value.Min != want[i].Value.Min ||
				got[i].Value.Max != want[i].Value.Max ||
				len(got[i].Value.Samples) != len(want[i].Value.Samples) {
				return false
			}
			// Sample multisets must match (merge order may differ).
			a := append([]float64(nil), got[i].Value.Samples...)
			b := append([]float64(nil), want[i].Value.Samples...)
			sort.Float64s(a)
			sort.Float64s(b)
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sortMerge is the naive Reduce-side merge MergeSorted is held against:
// sort the concatenated streams, then fold each run of equal keys through
// Value.merge into clones of the input values.
func sortMerge(ps []Pair) []Pair {
	SortPairs(ps)
	var out []Pair
	for _, p := range ps {
		if n := len(out); n > 0 && p.Key.Equal(out[n-1].Key) {
			out[n-1].Value.merge(p.Value)
			continue
		}
		out = append(out, Pair{Key: p.Key, Value: p.Value.Clone()})
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestQuickMergeSortedOutputSorted: output keys are strictly ascending.
func TestQuickMergeSortedOutputSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		streams := make([][]Pair, 1+r.Intn(4))
		for s := range streams {
			n := 1 + r.Intn(10)
			ps := make([]Pair, 0, n)
			for i := 0; i < n; i++ {
				ps = append(ps, Pair{Key: coords.NewCoord(r.Int63n(6)), Value: NewValue(1, false)})
			}
			SortPairs(ps)
			streams[s] = ps
		}
		got := MergeSorted(streams)
		for i := 1; i < len(got); i++ {
			if !got[i-1].Key.Less(got[i].Key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// holisticStreams is a Reduce's input for a holistic keyblock: n streams,
// each carrying keys [0, keys) with m samples per key, every key shared by
// every stream.
func holisticStreams(n, keys, m int, r *rand.Rand) [][]Pair {
	streams := make([][]Pair, n)
	for s := range streams {
		ps := make([]Pair, keys)
		for k := range ps {
			var v Value
			xs := make([]float64, m)
			for i := range xs {
				xs[i] = r.NormFloat64()
			}
			v.AddRun(xs, allStats, true)
			ps[k] = Pair{Key: coords.NewCoord(int64(k/16), int64(k%16)), Value: v}
		}
		streams[s] = ps
	}
	return streams
}

// TestMergeSortedSampleWindows: the merged keys' samples share one array
// as disjoint, cap-clipped windows — overwriting one key's samples or
// appending to them leaves every other key's intact — and the input
// streams are not modified.
func TestMergeSortedSampleWindows(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	streams := holisticStreams(4, 48, 5, r)
	// Uneven windows: keys a stream skips, sample-less pairs, and a
	// pre-filtered-empty value.
	streams[1] = streams[1][3:]
	streams[2][7].Value = NewValue(1, false)
	streams[3][9].Value = Value{Count: 2, Samples: []float64{}}
	before := make([][]Pair, len(streams))
	for s, ps := range streams {
		for _, p := range ps {
			before[s] = append(before[s], Pair{Key: p.Key.Clone(), Value: p.Value.Clone()})
		}
	}
	got, want := MergeSorted(streams), refMergeSorted(streams)
	if len(got) != len(want) {
		t.Fatalf("%d keys, reference %d", len(got), len(want))
	}
	for i := range got {
		s := got[i].Value.Samples
		if len(s) != cap(s) {
			t.Fatalf("key %v: %d samples in a window of %d", got[i].Key, len(s), cap(s))
		}
		for j := range s {
			s[j] = math.Inf(-1)
		}
		got[i].Value.Samples = append(s, math.Inf(1))
		for k := i + 1; k < len(got); k++ {
			if !valueBitsEqual(got[k].Value, want[k].Value) {
				t.Fatalf("writing key %v's samples changed key %v: %v, want %v", got[i].Key, got[k].Key, got[k].Value.Samples, want[k].Value.Samples)
			}
		}
	}
	for s, ps := range streams {
		for i, p := range ps {
			if b := before[s][i]; !p.Key.Equal(b.Key) || !valueBitsEqual(p.Value, b.Value) {
				t.Fatalf("stream %d pair %d modified: %v %+v, was %v %+v", s, i, p.Key, p.Value, b.Key, b.Value)
			}
		}
	}
}

// TestMergeSortedAllocsIndependentOfKeys: a holistic merge allocates the
// heap, the output and one sample array, whatever the key count.
func TestMergeSortedAllocsIndependentOfKeys(t *testing.T) {
	allocs := func(keys int) float64 {
		streams := holisticStreams(4, keys, 32, rand.New(rand.NewSource(2)))
		return testing.AllocsPerRun(5, func() { MergeSorted(streams) })
	}
	if small, large := allocs(16), allocs(1024); small != large || large > 3 {
		t.Fatalf("MergeSorted allocations: %v for 16 keys, %v for 1024 (want equal, ≤ 3)", small, large)
	}
}
