package experiments

import (
	"sidr/internal/core"
	"sidr/internal/simcluster"
)

// SimWorkload carries the per-task data volumes the simulator charges
// for; PaperWorkload computes it from a plan and its query.
type SimWorkload struct {
	Splits  []simcluster.Split
	Reduces []simcluster.Reduce
}

// Simulate runs the plan on the cluster model: the job the plan hands
// every engine (JobConfig — barrier mode, shuffle pattern, task order,
// count gate), executed by the one job loop in virtual time at the
// engine's Map cost factor.
func Simulate(p *core.Plan, cfg simcluster.Config, w SimWorkload) (*simcluster.Result, error) {
	return SimulateWith(p, cfg, w, nil)
}

// SimulateWith is Simulate with an optional Reduce-failure model for the
// §6 recovery study.
func SimulateWith(p *core.Plan, cfg simcluster.Config, w SimWorkload, failure *simcluster.FailureModel) (*simcluster.Result, error) {
	return simcluster.Run(cfg, p.JobConfig(nil, nil), simcluster.Job{
		Splits:        w.Splits,
		Reduces:       w.Reduces,
		MapCostFactor: p.Engine.MapCostFactor(),
		Failure:       failure,
	})
}
