package experiments

import (
	"sidr/internal/core"
	"sidr/internal/sched"
	"sidr/internal/simcluster"
)

// SimWorkload carries the per-task data volumes the simulator charges
// for; PaperWorkload computes it from a plan and its query.
type SimWorkload struct {
	Splits  []simcluster.Split
	Reduces []simcluster.Reduce
}

// Simulate runs the plan on the discrete-event cluster model, using the
// engine's scheduler policy, barrier mode, shuffle pattern, and Map cost
// factor, over the plan's real dependency graph.
func Simulate(p *core.Plan, cfg simcluster.Config, w SimWorkload) (*simcluster.Result, error) {
	return SimulateWith(p, cfg, w, nil)
}

// SimulateWith is Simulate with an optional Reduce-failure model for the
// §6 recovery study.
func SimulateWith(p *core.Plan, cfg simcluster.Config, w SimWorkload, failure *simcluster.FailureModel) (*simcluster.Result, error) {
	maps := make([]sched.MapInfo, len(w.Splits))
	for i, s := range w.Splits {
		maps[i] = sched.MapInfo{Hosts: s.Hosts}
	}
	job := simcluster.Job{
		Splits:        w.Splits,
		Reduces:       w.Reduces,
		MapCostFactor: p.Engine.MapCostFactor(),
		Failure:       failure,
	}
	switch p.Engine {
	case core.EngineSIDR:
		s, err := sched.NewSIDR(maps, p.Graph, p.Priority)
		if err != nil {
			return nil, err
		}
		job.Scheduler = s
	default:
		job.Scheduler = sched.NewHadoop(maps, p.Reducers)
		job.GlobalBarrier = true
		job.FetchAll = true
	}
	return simcluster.Simulate(cfg, job)
}
