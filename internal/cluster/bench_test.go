package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/exec"
)

// BenchmarkClusterMedian runs the bench's shuffle_median query shape — a
// holistic operator, so every source point crosses the shuffle as its
// own pair — at a quarter of its extents through Coordinator.Run on two
// loopback workers, with and without the default spill replica. The
// difference between the two is what replication costs a job in wall
// time; replica-B/op is what it moves.
func BenchmarkClusterMedian(b *testing.B) {
	shape := coords.NewShape(32, 64, 64)
	path := filepath.Join(b.TempDir(), "grid.ncf")
	if err := datagen.WriteDataset(path, "temp", shape, datagen.Temperature(1)); err != nil {
		b.Fatal(err)
	}
	plan := JobPlan{Query: "median temp[0,0,0 : 32,64,64] es {4,4,4}", Engine: "sidr", Reducers: 8, SplitPoints: shape.Size() / 16}
	dataset := DatasetSpec{Kind: "file", Path: path, Variable: "temp"}
	for _, replicas := range []int{0, 1} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			cfg := CoordinatorConfig{SpillReplicas: replicas}
			if replicas == 0 {
				cfg.SpillReplicas = -1 // 0 means the default, one
			}
			c, _ := startCluster(b, 2, cfg)
			b.Cleanup(c.Close)
			ex := exec.New(2)
			b.Cleanup(ex.Close)
			var shuffled, replicated int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Run(context.Background(), JobSpec{Plan: plan, Dataset: dataset, Exec: ex})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Outputs) != plan.Reducers {
					b.Fatalf("%d keyblock outputs, want %d", len(res.Outputs), plan.Reducers)
				}
				shuffled += res.Counters.ShuffleBytes
				replicated += res.Counters.ReplicaBytes
			}
			b.ReportMetric(float64(shuffled)/float64(b.N), "shuffle-B/op")
			b.ReportMetric(float64(replicated)/float64(b.N), "replica-B/op")
		})
	}
}
