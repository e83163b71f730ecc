package wire

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"sidr"
	"sidr/internal/datagen"
)

// serveMixQueries are serve_mix's three operators over one of its
// sub-regions: one value per key, one value per key through a holistic
// reduce, and a filter that keeps about one point in a hundred.
var serveMixQueries = []string{
	"avg v[0,0,0 : 32,64,64] es {4,4,4}",
	"median v[0,0,0 : 32,64,64] es {4,4,4}",
	"filter_gt v[0,0,0 : 32,64,64] es {4,4,4} param 99",
}

var (
	benchResultsOnce sync.Once
	benchResults     []*sidr.Result
	benchResultsErr  error
)

// serveMixResults runs serveMixQueries once, on 4 reducers over
// serve_mix's value generator.
func serveMixResults(b *testing.B) []*sidr.Result {
	benchResultsOnce.Do(func() {
		gen := datagen.EvenKeyed(21)
		ds, err := sidr.Synthetic([]int64{32, 64, 64}, func(k []int64) float64 { return gen(k) })
		if err != nil {
			benchResultsErr = err
			return
		}
		defer ds.Close()
		for _, qs := range serveMixQueries {
			q, err := sidr.ParseQuery(qs)
			if err != nil {
				benchResultsErr = err
				return
			}
			res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: 4})
			if err != nil {
				benchResultsErr = err
				return
			}
			benchResults = append(benchResults, res)
		}
	})
	if benchResultsErr != nil {
		b.Fatal(benchResultsErr)
	}
	return benchResults
}

// BenchmarkEventTail encodes a result's stream as the live path does:
// every partial, then the done event.
func BenchmarkEventTail(b *testing.B) {
	for i, res := range serveMixResults(b) {
		b.Run(strings.Fields(serveMixQueries[i])[0], func(b *testing.B) {
			b.ReportAllocs()
			size := 0
			for n := 0; n < b.N; n++ {
				size = 0
				for _, pr := range res.Partials {
					p := FromPartial(pr)
					tail, err := EventTail(StreamEvent{Type: EventPartial, Partial: &p})
					if err != nil {
						b.Fatal(err)
					}
					size += len(tail)
				}
				tail, err := EventTail(StreamEvent{Type: EventDone, Result: FromResult(res)})
				if err != nil {
					b.Fatal(err)
				}
				size += len(tail)
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkStreamDecode decodes a result's NDJSON stream line by line
// into StreamEvent through encoding/json, as a client does.
func BenchmarkStreamDecode(b *testing.B) {
	for i, res := range serveMixResults(b) {
		b.Run(strings.Fields(serveMixQueries[i])[0], func(b *testing.B) {
			events, err := EncodeStream(res)
			if err != nil {
				b.Fatal(err)
			}
			var lines [][]byte
			size := 0
			for _, ev := range events {
				line := append(AppendEventHead(nil, ev.Type, "job-000001"), ev.Tail...)
				lines = append(lines, line)
				size += len(line)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, line := range lines {
					var ev StreamEvent
					if err := json.Unmarshal(line, &ev); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
