package experiments

import (
	"sidr/internal/core"
	"sidr/internal/simcluster"
)

// simWorkload carries the per-task data volumes the simulator charges
// for; PaperWorkload computes it from a plan and its query.
type simWorkload struct {
	Splits  []simcluster.Split
	Reduces []simcluster.Reduce
}

// Simulate runs the plan on the cluster model: the job the plan hands
// every engine (JobConfig — barrier mode, shuffle pattern, task order,
// count gate), executed by the one job loop in virtual time at the
// engine's Map cost factor.
func Simulate(p *core.Plan, cfg simcluster.Config, w simWorkload) (*simcluster.Result, error) {
	return simulateWith(p, cfg, w, nil)
}

// simulateWith is Simulate with an optional Reduce-failure model for the
// §6 recovery study.
func simulateWith(p *core.Plan, cfg simcluster.Config, w simWorkload, failure *simcluster.FailureModel) (*simcluster.Result, error) {
	return simcluster.Run(cfg, p.JobConfig(nil, nil), simcluster.Job{
		Splits:        w.Splits,
		Reduces:       w.Reduces,
		MapCostFactor: p.Engine.MapCostFactor(),
		Failure:       failure,
	})
}
