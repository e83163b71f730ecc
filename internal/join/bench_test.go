package join

import (
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/query"
)

// sliceReader serves a slab's values from memory, materialised once from
// fn, so a benchmark measures the kernel rather than the generator.
func sliceReader(input coords.Slab, fn func(coords.Coord) float64) coords.RecordReader {
	vals, _ := funcReader{fn}.ReadSlabInto(input, nil)
	return memReader{input, vals}
}

type memReader struct {
	input coords.Slab
	vals  []float64
}

func (r memReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	dst = dst[:0]
	rowLen := r.input.Shape[1]
	for row := slab.Corner[0]; row < slab.Corner[0]+slab.Shape[0]; row++ {
		at := (row-r.input.Corner[0])*rowLen + slab.Corner[1] - r.input.Corner[1]
		dst = append(dst, r.vals[at:at+slab.Shape[1]]...)
	}
	return dst, nil
}

// joinZipf is a join_zipf-shaped plan over a 1024×512 input: a dense
// integer side A against a zipf-sparse side B, jcorr over 16×16 tiles, 8
// reducers, re-tiling on, 512-row splits (the benchmark's split shape).
func joinZipf(b *testing.B) (p *Plan, readers [2]coords.RecordReader, splits []coords.Slab) {
	q, err := query.Parse("join jcorr a[0,0 : 1024,512] es {16,16} with b[0,0 : 1024,512] es {16,16}")
	if err != nil {
		b.Fatal(err)
	}
	readers = [2]coords.RecordReader{sliceReader(q.Input, datagen.Integers(11)), sliceReader(q.Input2, datagen.Zipf(12, 1.4))}
	if splits, err = q.Input.SplitDim(0, 512); err != nil {
		b.Fatal(err)
	}
	if p, err = Build(q, Options{Reducers: 8, MaxSkew: 16}, readers[0], readers[1], splits, splits); err != nil {
		b.Fatal(err)
	}
	return p, readers, splits
}

// BenchmarkJoinExecMap runs the join Map on one join_zipf-shaped split
// per side: the dense side fills every sample window, the zipf side is
// mostly missing.
func BenchmarkJoinExecMap(b *testing.B) {
	p, readers, splits := joinZipf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for side, r := range readers {
			if _, _, err := ExecMap(p, side, r, splits[1], nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJoinBuild plans the join_zipf-shaped join: the plan-time
// sampling of both sides, every 16th row of each split, then the
// re-tiling against the sampled loads.
func BenchmarkJoinBuild(b *testing.B) {
	p, readers, splits := joinZipf(b)
	opts := Options{Reducers: 8, MaxSkew: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p.Q, opts, readers[0], readers[1], splits, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinBuildGraph derives the join_zipf-shaped plan's dependency
// graph: the geometric count of every split of both sides.
func BenchmarkJoinBuildGraph(b *testing.B) {
	p, _, splits := joinZipf(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(p, splits, splits); err != nil {
			b.Fatal(err)
		}
	}
}
