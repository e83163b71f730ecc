package experiments

import (
	"fmt"

	"sidr/internal/core"
	"sidr/internal/simcluster"
)

// failureStudyRow compares the two §6 recovery strategies at one failure
// probability: stock persist-everything (every Map task pays a
// persistence overhead, recovery refetches) vs SIDR's proposed
// no-persist (full-speed Map tasks, recovery re-executes the failed
// Reduce task's I_ℓ Map subset).
type failureStudyRow struct {
	FailureProb       float64
	PersistMakespan   float64
	PersistFailures   int
	RecomputeMakespan float64
	RecomputeFailures int
}

// Format renders the row as one harness output line.
func (r failureStudyRow) Format() string {
	winner := "persist"
	if r.RecomputeMakespan < r.PersistMakespan {
		winner = "no-persist"
	}
	return fmt.Sprintf("p=%4.2f  persist=%7.1fs (%d failures)  no-persist=%7.1fs (%d failures)  winner=%s",
		r.FailureProb, r.PersistMakespan, r.PersistFailures,
		r.RecomputeMakespan, r.RecomputeFailures, winner)
}

// persistOverheadDefault is the fractional Map-task slowdown charged for
// persisting intermediate data to local disk (a spill write alongside
// every Map task's output).
const persistOverheadDefault = 0.08

// FailureStudy runs the §6 hypothesis at paper scale: Query 1 under SIDR
// with the given Reduce count, sweeping Reduce-failure probabilities.
// The paper's hypothesis — "the performance savings in the non-failure
// case will offset said re-execution cost" — predicts no-persist wins at
// low failure rates and loses once re-execution dominates; the crossover
// moves to higher failure rates as the Reduce count grows (smaller I_ℓ
// sets make re-execution cheaper).
func FailureStudy(cfg simcluster.Config, reducers int, probs []float64) ([]failureStudyRow, error) {
	q := Query1()
	p, err := PaperPlan(q, core.EngineSIDR, reducers)
	if err != nil {
		return nil, err
	}
	w, err := PaperWorkload(p, 0)
	if err != nil {
		return nil, err
	}
	var rows []failureStudyRow
	for _, prob := range probs {
		row := failureStudyRow{FailureProb: prob}
		for _, recompute := range []bool{false, true} {
			res, err := simulateWithFailure(p, cfg, w, prob, recompute)
			if err != nil {
				return nil, err
			}
			if recompute {
				row.RecomputeMakespan = res.Stats.Makespan
				row.RecomputeFailures = res.Stats.FailedReduces
			} else {
				row.PersistMakespan = res.Stats.Makespan
				row.PersistFailures = res.Stats.FailedReduces
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// simulateWithFailure is Simulate with a failure model attached.
func simulateWithFailure(p *core.Plan, cfg simcluster.Config, w simWorkload, prob float64, recompute bool) (*simcluster.Result, error) {
	return simulateWith(p, cfg, w, &simcluster.FailureModel{
		Prob:            prob,
		Recompute:       recompute,
		PersistOverhead: persistOverheadDefault,
	})
}
