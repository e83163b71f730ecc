package depgraph

import (
	"testing"

	"sidr/internal/partition"
	"sidr/internal/query"
)

// BenchmarkBuildPaperScale measures dependency planning for Query 1 at
// full paper geometry: 2,781 splits × their K' tile ranges against 22
// partition+ keyblocks — the "small IO cost to job submission" §3.2.1
// weighs against per-task recomputation.
func BenchmarkBuildPaperScale(b *testing.B) {
	q, err := query.Parse("median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}")
	if err != nil {
		b.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		b.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 22, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	splits, err := q.Input.SplitDimCount(0, 2781)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(q, splits, pp)
		if err != nil {
			b.Fatal(err)
		}
		if g.TotalPoints() != q.Input.Size() {
			b.Fatal("wrong coverage")
		}
	}
}
