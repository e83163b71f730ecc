package kv

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sidr/internal/coords"
)

// benchStreams builds n sorted streams of m pairs each.
func benchStreams(n, m int) [][]Pair {
	r := rand.New(rand.NewSource(1))
	streams := make([][]Pair, n)
	for s := range streams {
		ps := make([]Pair, m)
		for i := range ps {
			ps[i] = Pair{Key: coords.NewCoord(r.Int63n(1000), r.Int63n(100)), Value: NewValue(r.NormFloat64(), false)}
		}
		SortPairs(ps)
		streams[s] = ps
	}
	return streams
}

// benchKey is the k-th key of a rank-3 Map output walked row-major, 16
// keys to the innermost line.
func benchKey(k int) coords.Coord { return coords.NewCoord(7, int64(k/16), int64(k%16)) }

// repeatedKeyStreams is the worst case the key column's multiplicity and
// the merge's run-riding exist for: n streams over the same distinct
// keys, every key repeated mult times in each stream, one sample per
// pair, pairs of a key sharing its slice as decoded spills do. (No Map
// task emits it: the kernel ships one pair per key.)
func repeatedKeyStreams(n, keys, mult int) [][]Pair {
	r := rand.New(rand.NewSource(1))
	streams := make([][]Pair, n)
	for s := range streams {
		ps := make([]Pair, 0, keys*mult)
		for k := 0; k < keys; k++ {
			key := benchKey(k)
			for m := 0; m < mult; m++ {
				ps = append(ps, Pair{Key: key, Value: NewValue(r.NormFloat64(), true)})
			}
		}
		streams[s] = ps
	}
	return streams
}

func BenchmarkMergeSorted(b *testing.B) {
	for _, bc := range []struct {
		name    string
		streams [][]Pair
	}{
		{"distinct-keys", benchStreams(16, 1000)},
		{"repeated-keys", repeatedKeyStreams(4, 512, 32)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := MergeSorted(bc.streams); len(out) == 0 {
					b.Fatal("empty merge")
				}
			}
		})
	}
}

func BenchmarkConcatSortMerge(b *testing.B) {
	// The naive alternative to MergeSorted, for comparison.
	streams := benchStreams(16, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var all []Pair
		for _, s := range streams {
			for _, p := range s {
				all = append(all, Pair{Key: p.Key, Value: p.Value.Clone()})
			}
		}
		if out := sortMerge(all); len(out) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// spillShapes are three block kinds the codec distinguishes, each 16384
// pairs (or samples) of one rank-3 Map output walked row-major, with the
// statistics its operator declares.
func spillShapes() []struct {
	name  string
	pairs []Pair
} {
	r := rand.New(rand.NewSource(1))
	var aggregates, sampled []Pair
	for k := 0; k < 16384; k++ {
		var v Value
		v.AddRun([]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, StatSum, false)
		aggregates = append(aggregates, Pair{Key: benchKey(k), Value: v})
	}
	for k := 0; k < 512; k++ {
		xs := make([]float64, 32)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		var v Value
		v.AddRun(xs, 0, true)
		sampled = append(sampled, Pair{Key: benchKey(k), Value: v})
	}
	return []struct {
		name  string
		pairs []Pair
	}{
		// One pair per sample, every statistic derived: the sample column
		// alone.
		{"singletons", repeatedKeyStreams(1, 512, 32)[0]},
		// A combined distributive split (avg): one sum and count per key.
		{"aggregates", aggregates},
		// A holistic split (shuffle_median): one pair per key, 32 samples each.
		{"sampled", sampled},
	}
}

// BenchmarkSpillWriteRead round-trips each block kind through the codec
// and reports what the shuffle pays for it: encoded bytes per pair,
// encode and decode throughput over those bytes, and the allocations of
// one decode (three arrays and a growing payload buffer per spill,
// whatever the pair count).
func BenchmarkSpillWriteRead(b *testing.B) {
	for _, shape := range spillShapes() {
		b.Run(shape.name, func(b *testing.B) {
			var buf bytes.Buffer
			var encode, decode time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				t0 := time.Now()
				if err := WriteSpillV3(&buf, 3, int64(len(shape.pairs)), shape.pairs, V3Options{}); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, _, err := ReadSpill(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
				encode, decode = encode+t1.Sub(t0), decode+time.Since(t1)
			}
			mb := float64(buf.Len()) * float64(b.N) / 1e6
			b.ReportMetric(float64(buf.Len())/float64(len(shape.pairs)), "B/pair")
			b.ReportMetric(mb/encode.Seconds(), "encode-MB/s")
			b.ReportMetric(mb/decode.Seconds(), "decode-MB/s")
			b.ReportMetric(testing.AllocsPerRun(1, func() { ReadSpill(bytes.NewReader(buf.Bytes())) }), "decode-allocs")
		})
	}
}
