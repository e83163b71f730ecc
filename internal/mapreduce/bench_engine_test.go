package mapreduce

import (
	"math/rand"
	"path/filepath"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/ncfile"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// benchConfig assembles a SIDR-engine job over the synthetic dataset for
// the end-to-end engine benchmark. Kept apart from buildJob so the
// benchmark does not depend on *testing.T helpers.
func benchConfig(b *testing.B, qs string, reducers int) Config {
	b.Helper()
	q, err := query.Parse(qs)
	if err != nil {
		b.Fatal(err)
	}
	splits, err := GenerateSplits(q.Input, q.Input.Size()/7+1, nil, "", 8)
	if err != nil {
		b.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.NewPartitionPlus(space, reducers, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := depgraph.Build(q, Slabs(splits), part)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Query:   q,
		Splits:  splits,
		Reader:  &FuncReader{Fn: synthValue},
		Part:    part,
		Graph:   g,
		Barrier: DependencyBarrier,
	}
}

// BenchmarkEngine measures a full Run of the SIDR engine (dependency
// barrier, count validation, combining) over a 256×64 synthetic input.
func BenchmarkEngine(b *testing.B) {
	cfg := benchConfig(b, "avg temp[0,0 : 256,64] es {8,8}", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecReduce measures one Reduce task's body — the walk over
// the keyblock's streams and the operator per key. The first three cases
// reduce 4 streams × 1 024 keys × 32 samples, the shape of a
// shuffle_median keyblock (every key fed by every stream); avg ships
// aggregates only, filter_gt keeps about half the samples. The
// _disjoint cases reduce 8 streams × 256 keys × 32 samples, each key in
// one stream: the scan_avg-shaped keyblock an on-grid query reduces, whose
// keys are applied where they lie. A filter orders a window it reads in
// place, so every iteration first restores the samples, off the clock.
func BenchmarkExecReduce(b *testing.B) {
	for _, c := range []struct {
		name, query   string
		streams, keys int
		disjoint      bool
	}{
		{"median", "median v[0,0 : 128,256] es {4,8}", 4, 1024, false},
		{"avg", "avg v[0,0 : 128,256] es {4,8}", 4, 1024, false},
		{"filter_gt", "filter_gt v[0,0 : 128,256] es {4,8} param 0", 4, 1024, false},
		{"avg_disjoint", "avg v[0,0 : 256,256] es {4,8}", 8, 256, true},
		{"filter_gt_disjoint", "filter_gt v[0,0 : 256,256] es {4,8} param 0", 8, 256, true},
	} {
		q, err := query.Parse(c.query)
		if err != nil {
			b.Fatal(err)
		}
		op, err := q.Op()
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		streams := make([][]kv.Pair, c.streams)
		var samples, pristine []float64
		for s := range streams {
			ps := make([]kv.Pair, c.keys)
			xs := make([]float64, 32)
			for k := range ps {
				for i := range xs {
					xs[i] = r.NormFloat64()
				}
				key := k
				if c.disjoint {
					key += s * c.keys
				}
				ps[k].Key = coords.NewCoord(int64(key/32), int64(key%32))
				ps[k].Value.AddRun(xs, op.Stats(), op.NeedsSamples())
				samples = append(samples, ps[k].Value.Samples...)
			}
			streams[s] = ps
		}
		if c.disjoint && op.NeedsSamples() {
			// One array holds every window, so one copy restores them.
			at := 0
			for _, ps := range streams {
				for k := range ps {
					n := len(ps[k].Value.Samples)
					ps[k].Value.Samples = samples[at : at+n : at+n]
					at += n
				}
			}
			pristine = append([]float64(nil), samples...)
		}
		in := MapInput{Query: q, Op: op}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pristine != nil {
					b.StopTimer()
					copy(samples, pristine)
					b.StartTimer()
				}
				if out := execReduce(in, 0, streams); len(out.Keys) == 0 {
					b.Fatal("no output")
				}
			}
		})
	}

	// jcorr reduces a join_zipf-shaped keyblock, its streams read where
	// they lie: one dense side-A stream of 1 024 tiles × 256 samples, and
	// one side-B stream that is mostly missing — one tile in eight keeps
	// 1–8 present cells.
	q, err := query.Parse("join jcorr a[0,0 : 512,512] es {16,16} with b[0,0 : 512,512] es {16,16}")
	if err != nil {
		b.Fatal(err)
	}
	jp, err := join.Build(q, join.Options{Reducers: 1}, nil, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pair := func(k, side int64, n int) kv.Pair {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		p := kv.Pair{Key: coords.NewCoord(k/32, k%32, side)}
		p.Value.AddRun(xs, jp.Op.Stats(), true)
		return p
	}
	streams := make([][]kv.Pair, 2)
	for k := int64(0); k < 1024; k++ {
		streams[0] = append(streams[0], pair(k, 0, 256))
		if k%8 == 3 {
			streams[1] = append(streams[1], pair(k, 1, 1+r.Intn(8)))
		}
	}
	in := MapInput{Query: q, Join: jp}
	b.Run("jcorr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := execReduce(in, 0, streams); len(out.Keys) == 0 {
				b.Fatal("no output")
			}
		}
	})
}

// BenchmarkExecMap measures one Map task — the read, the fold and the
// seal. The first four cases read a prune_filter-shaped split: 4×128×64
// points of a file, uniform in [0, 1000), under es {4,8,8} and 16
// keyblocks. avg ships sums and counts, median every sample, and
// filter_gt param 900 about one value in ten, selected as the scan folds:
// about 26 of a key's 256 points, below ops' insertion-sort cutoff of 48.
// filter_gt_500 keeps about 128 a key, above it. avg_es8 reads one split
// of scan_avg's query — 8×256×64 points under es {8,8,8} and 8 keyblocks —
// whose runs are 8 points long, so the fold of the statistics avg
// declares is most of its work. sum_es8, stddev_es8 and max_es8 read the
// same split for the other line folds: Sum alone (as avg), Sum and SumSq,
// and Min and Max.
func BenchmarkExecMap(b *testing.B) {
	h := &ncfile.Header{
		Dims: []ncfile.Dimension{{Name: "t", Length: 8}, {Name: "y", Length: 256}, {Name: "x", Length: 64}},
		Vars: []ncfile.Variable{{Name: "v", Type: ncfile.Float64, Dims: []string{"t", "y", "x"}}},
	}
	f, err := ncfile.CreateEmpty(filepath.Join(b.TempDir(), "split.ncf"), h)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	file := coords.MustSlab(coords.NewCoord(0, 0, 0), coords.NewShape(8, 256, 64))
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, file.Size())
	for i := range vals {
		vals[i] = r.Float64() * 1000
	}
	if err := f.WriteSlab("v", file, vals); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, query string
		reducers    int
	}{
		{"avg", "avg v[0,0,0 : 4,128,64] es {4,8,8}", 16},
		{"median", "median v[0,0,0 : 4,128,64] es {4,8,8}", 16},
		{"filter_gt", "filter_gt v[0,0,0 : 4,128,64] es {4,8,8} param 900", 16},
		{"filter_gt_500", "filter_gt v[0,0,0 : 4,128,64] es {4,8,8} param 500", 16},
		{"avg_es8", "avg v[0,0,0 : 8,256,64] es {8,8,8}", 8},
		{"sum_es8", "sum v[0,0,0 : 8,256,64] es {8,8,8}", 8},
		{"stddev_es8", "stddev v[0,0,0 : 8,256,64] es {8,8,8}", 8},
		{"max_es8", "max v[0,0,0 : 8,256,64] es {8,8,8}", 8},
	} {
		q, err := query.Parse(c.query)
		if err != nil {
			b.Fatal(err)
		}
		op, err := q.Op()
		if err != nil {
			b.Fatal(err)
		}
		space, err := q.IntermediateSpace()
		if err != nil {
			b.Fatal(err)
		}
		part, err := partition.NewPartitionPlus(space, c.reducers, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		in := MapInput{Query: q, Op: op, Space: space, Part: part, Reader: &FileReader{File: f, Var: "v"}, Combine: true}
		slab := q.Input
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(slab.Size() * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, records, err := ExecMap(in, InputSplit{Slab: slab}); err != nil || records != slab.Size() {
					b.Fatal(records, err)
				}
			}
		})
	}
}
