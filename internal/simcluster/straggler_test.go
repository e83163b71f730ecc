package simcluster

import (
	"testing"

	"sidr/internal/core"
)

// stragglerPlan is 64 Maps under the global barrier.
func stragglerPlan(t *testing.T) *core.Plan { return plan(t, core.EngineSciHadoop, 256, 4) }

func TestStragglersSlowTheJob(t *testing.T) {
	cfg := tinyConfig()
	p := stragglerPlan(t)
	r0 := run(t, cfg, p, workload(p))
	cfg.StragglerProb = 0.1
	cfg.StragglerFactor = 5
	r1 := run(t, cfg, p, workload(p))
	if r1.Stats.Stragglers == 0 {
		t.Fatal("no stragglers injected")
	}
	if !(r1.Stats.MapsDone > r0.Stats.MapsDone) {
		t.Fatalf("stragglers did not slow maps: %v vs %v", r1.Stats.MapsDone, r0.Stats.MapsDone)
	}
}

func TestSpeculationMitigatesStragglers(t *testing.T) {
	cfg := tinyConfig()
	cfg.StragglerProb = 0.1
	cfg.StragglerFactor = 8
	p := stragglerPlan(t)
	r0 := run(t, cfg, p, workload(p))
	cfg.Speculation = true
	r1 := run(t, cfg, p, workload(p))
	if r1.Stats.SpeculativeWins == 0 {
		t.Fatal("no speculative wins recorded")
	}
	if !(r1.Stats.MapsDone < r0.Stats.MapsDone) {
		t.Fatalf("speculation did not help: %v vs %v", r1.Stats.MapsDone, r0.Stats.MapsDone)
	}
}

func TestSpeculationNoOpWithoutStragglers(t *testing.T) {
	cfg := tinyConfig()
	cfg.Speculation = true
	p := stragglerPlan(t)
	if res := run(t, cfg, p, workload(p)); res.Stats.Stragglers != 0 || res.Stats.SpeculativeWins != 0 {
		t.Fatalf("phantom stragglers: %+v", res.Stats)
	}
}
