package cluster

import (
	"context"
	"path/filepath"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/exec"
)

// BenchmarkClusterMedian runs the bench's shuffle_median query shape — a
// holistic operator, whose 2-row split target the planner rounds to the
// 4-row tile grid, so every key is split-local and crosses the shuffle
// finished — at a quarter of its extents through Coordinator.Run on two
// loopback workers; shuffle-B/op is what one job moves.
func BenchmarkClusterMedian(b *testing.B) {
	shape := coords.NewShape(32, 64, 64)
	path := filepath.Join(b.TempDir(), "grid.ncf")
	if err := datagen.WriteDataset(path, "temp", shape, datagen.Temperature(1)); err != nil {
		b.Fatal(err)
	}
	plan := JobPlan{Query: "median temp[0,0,0 : 32,64,64] es {4,4,4}", Engine: "sidr", Reducers: 8, SplitPoints: shape.Size() / 16}
	dataset := DatasetSpec{Kind: "file", Path: path, Variable: "temp"}
	c, _ := startCluster(b, 2, CoordinatorConfig{})
	b.Cleanup(c.Close)
	ex := exec.New(2)
	b.Cleanup(ex.Close)
	var shuffled int64
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
	}
	b.ReportMetric(float64(shuffled)/float64(b.N), "shuffle-B/op")
}
