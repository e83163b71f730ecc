package depgraph

import (
	"testing"

	"sidr/internal/coords"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// benchPlan parses query and returns it with its input cut into splits
// row bands and a partition+ partitioner over reducers keyblocks: the
// inputs a planner hands Build.
func benchPlan(b *testing.B, src string, splits, reducers int) (*query.Query, []coords.Slab, partition.Partitioner) {
	b.Helper()
	q, err := query.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		b.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, reducers, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	slabs, err := q.Input.SplitDimCount(0, splits)
	if err != nil {
		b.Fatal(err)
	}
	return q, slabs, pp
}

// benchBuild times Build over one plan and checks that the graph covers
// the input, for a dense extraction.
func benchBuild(b *testing.B, q *query.Query, splits []coords.Slab, p partition.Partitioner) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(q, splits, p)
		if err != nil {
			b.Fatal(err)
		}
		if totalPoints(g) != q.Input.Size() {
			b.Fatal("wrong coverage")
		}
	}
}

// BenchmarkBuild measures the single-input planner's dependency graph
// over the plans of the benchmark's single-input workloads: scan_avg,
// shuffle_median, and prune_filter before its index prunes a split.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name, query      string
		splits, reducers int
	}{
		{"scan_avg", "avg temp[0,0,0 : 512,256,64] es {8,8,8}", 64, 8},
		{"shuffle_median", "median temp[0,0,0 : 64,128,64] es {4,4,4}", 32, 8},
		{"prune_filter", "filter_gt v[0,0,0 : 2048,128,64] es {4,8,8} param 900", 512, 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			q, splits, p := benchPlan(b, c.query, c.splits, c.reducers)
			benchBuild(b, q, splits, p)
		})
	}
}

// BenchmarkBuildPaperScale measures dependency planning for Query 1 at
// full paper geometry: 2,781 splits × their K' tile ranges against 22
// partition+ keyblocks — the "small IO cost to job submission" §3.2.1
// weighs against per-task recomputation.
func BenchmarkBuildPaperScale(b *testing.B) {
	q, splits, p := benchPlan(b, "median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}", 2781, 22)
	benchBuild(b, q, splits, p)
}
