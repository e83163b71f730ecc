package kv

import (
	"bytes"
	"math/rand"
	"testing"

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

func BenchmarkMergeSorted(b *testing.B) {
	streams := benchStreams(16, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := MergeSorted(streams); len(out) == 0 {
			b.Fatal("empty merge")
		}
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
		SortPairs(all)
		if out := MergePairs(all); len(out) == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkSpillWriteRead(b *testing.B) {
	streams := benchStreams(1, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteSpillV3(&buf, 2, 5000, streams[0], V3Options{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadSpill(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
