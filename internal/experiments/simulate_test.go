package experiments

import (
	"testing"

	"sidr/internal/core"
	"sidr/internal/query"
	"sidr/internal/simcluster"
)

// TestSimulateOrdersEngines: the simulator replays a small plan's real
// dependency graph under each engine's policy and reproduces the paper's
// headline ordering.
func TestSimulateOrdersEngines(t *testing.T) {
	q, err := query.Parse("avg w[0,0 : 128,8] es {4,4}")
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestbedConfig(1)
	cfg.Workers = 2 // 8 map slots for 32 splits: four Map waves
	cfg.JitterFrac = 0

	var results []*simcluster.Result
	for _, e := range []core.Engine{core.EngineHadoop, core.EngineSciHadoop, core.EngineSIDR} {
		p, err := core.NewPlan(q, e, core.Options{Reducers: 4, SplitPoints: 32})
		if err != nil {
			t.Fatal(err)
		}
		w, err := PaperWorkload(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Splits) != len(p.Splits) || len(w.Reduces) != 4 {
			t.Fatalf("workload %d/%d", len(w.Splits), len(w.Reduces))
		}
		res, err := Simulate(p, cfg, w)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		results = append(results, res)
	}
	hadoop, sci, sidr := results[0], results[1], results[2]
	// The paper's headline ordering: SIDR first result << SciHadoop <<
	// Hadoop; Hadoop slowest overall.
	if !(sidr.Stats.FirstResult < sci.Stats.FirstResult) {
		t.Fatalf("SIDR first result %v not before SciHadoop %v", sidr.Stats.FirstResult, sci.Stats.FirstResult)
	}
	if !(sci.Stats.FirstResult < hadoop.Stats.FirstResult) {
		t.Fatalf("SciHadoop first result %v not before Hadoop %v", sci.Stats.FirstResult, hadoop.Stats.FirstResult)
	}
	if !(sci.Stats.Makespan < hadoop.Stats.Makespan) {
		t.Fatalf("SciHadoop %v not faster than Hadoop %v", sci.Stats.Makespan, hadoop.Stats.Makespan)
	}
	// Connection accounting: SIDR ≪ Hadoop-mode.
	if !(sidr.Stats.Connections < hadoop.Stats.Connections) {
		t.Fatalf("connections: SIDR %d vs Hadoop %d", sidr.Stats.Connections, hadoop.Stats.Connections)
	}
}
