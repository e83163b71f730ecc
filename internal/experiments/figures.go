package experiments

import (
	"fmt"

	"sidr/internal/core"
	"sidr/internal/partition"
	"sidr/internal/query"
	"sidr/internal/simcluster"
	"sidr/internal/skew"
	"sidr/internal/trace"
)

// runConfig simulates one (query, engine, reducers) configuration at
// paper scale and summarises it.
func runConfig(q *query.Query, engine core.Engine, reducers int, cfg simcluster.Config, survivorFrac float64, label string) (CurveResult, error) {
	p, err := PaperPlan(q, engine, reducers)
	if err != nil {
		return CurveResult{}, err
	}
	w, err := PaperWorkload(p, survivorFrac)
	if err != nil {
		return CurveResult{}, err
	}
	res, err := Simulate(p, cfg, w)
	if err != nil {
		return CurveResult{}, err
	}
	return summarize(label, res), nil
}

// Figure9 regenerates Figure 9: Map and Reduce task completion for
// Query 1 under Hadoop, SciHadoop and SIDR, all with 22 Reduce tasks.
// Expected shape: SIDR's first result arrives long before SciHadoop's,
// which arrives long before Hadoop's; SciHadoop and SIDR total times are
// within a few percent; Hadoop's Map phase is ~2.4× slower.
func Figure9(cfg simcluster.Config) ([]CurveResult, error) {
	q := Query1()
	var out []CurveResult
	for _, e := range []core.Engine{core.EngineHadoop, core.EngineSciHadoop, core.EngineSIDR} {
		label := fmt.Sprintf("22 Reduces(%s)", shortName(e))
		cr, err := runConfig(q, e, 22, cfg, 0, label)
		if err != nil {
			return nil, fmt.Errorf("figure 9 %v: %w", e, err)
		}
		out = append(out, cr)
	}
	return out, nil
}

// Figure10 regenerates Figure 10: Query 1 Reduce completion for
// SciHadoop at 22 Reduce tasks and SIDR at 22, 66, 176 and 528. Expected
// shape: SIDR's time-to-first-result and total time both fall as Reduce
// tasks are added, approaching the Map completion curve; SciHadoop gains
// nothing from more Reduce tasks.
func Figure10(cfg simcluster.Config) ([]CurveResult, error) {
	q := Query1()
	out := make([]CurveResult, 0, 5)
	cr, err := runConfig(q, core.EngineSciHadoop, 22, cfg, 0, "22 Reduces(SH)")
	if err != nil {
		return nil, fmt.Errorf("figure 10 SciHadoop: %w", err)
	}
	out = append(out, cr)
	for _, r := range []int{22, 66, 176, 528} {
		cr, err := runConfig(q, core.EngineSIDR, r, cfg, 0, fmt.Sprintf("%d Reduces(SS)", r))
		if err != nil {
			return nil, fmt.Errorf("figure 10 SIDR %d: %w", r, err)
		}
		out = append(out, cr)
	}
	return out, nil
}

// query2SurvivorFrac is the fraction of values a 3σ filter passes
// (§4.1: 0.1% of the dataset).
const query2SurvivorFrac = 0.001

// Figure11 regenerates Figure 11: the Query 2 filter under SciHadoop at
// 22 Reduce tasks and SIDR at 22, 66 and 176. Expected shape: Reduce
// tasks carry so little data that the completion curves approach optimal
// with fewer tasks, and SIDR's total-time gain over SciHadoop is much
// smaller than for Query 1.
func Figure11(cfg simcluster.Config) ([]CurveResult, error) {
	q := query2()
	out := make([]CurveResult, 0, 4)
	cr, err := runConfig(q, core.EngineSciHadoop, 22, cfg, query2SurvivorFrac, "22 Reduces(SH)")
	if err != nil {
		return nil, fmt.Errorf("figure 11 SciHadoop: %w", err)
	}
	out = append(out, cr)
	for _, r := range []int{22, 66, 176} {
		cr, err := runConfig(q, core.EngineSIDR, r, cfg, query2SurvivorFrac, fmt.Sprintf("%d Reduces(SS)", r))
		if err != nil {
			return nil, fmt.Errorf("figure 11 SIDR %d: %w", r, err)
		}
		out = append(out, cr)
	}
	return out, nil
}

// figure12Row is one reducer-count row of the variance experiment.
type figure12Row struct {
	Reducers   int
	Runs       int
	MeanTotal  float64
	MaxStdDev  float64
	MeanStdDev float64
}

// Format renders the row as one harness output line.
func (r figure12Row) Format() string {
	return fmt.Sprintf("%4d reducers over %d runs: meanTotal=%7.1fs maxStdDev=%6.1fs meanStdDev=%6.1fs",
		r.Reducers, r.Runs, r.MeanTotal, r.MaxStdDev, r.MeanStdDev)
}

// Figure12 regenerates Figure 12: variance in SIDR Reduce completion
// times across `runs` seeded executions, for 22 and 88 Reduce tasks.
// Expected shape: more Reduce tasks shrink each task's dependency set and
// with it the completion-time variance.
func Figure12(cfg simcluster.Config, runs int) ([]figure12Row, error) {
	if runs < 2 {
		return nil, fmt.Errorf("figure 12 needs at least 2 runs, got %d", runs)
	}
	q := Query1()
	var out []figure12Row
	for _, r := range []int{22, 88} {
		p, err := PaperPlan(q, core.EngineSIDR, r)
		if err != nil {
			return nil, err
		}
		w, err := PaperWorkload(p, 0)
		if err != nil {
			return nil, err
		}
		var series []trace.Series
		var totals float64
		for run := 0; run < runs; run++ {
			c := cfg
			c.Seed = cfg.Seed + int64(run)*7919
			res, err := Simulate(p, c, w)
			if err != nil {
				return nil, err
			}
			series = append(series, res.Trace.SeriesOf(trace.Reduce))
			totals += res.Stats.Makespan
		}
		vs, err := trace.VarianceAcross(series)
		if err != nil {
			return nil, err
		}
		out = append(out, figure12Row{
			Reducers:   r,
			Runs:       runs,
			MeanTotal:  totals / float64(runs),
			MaxStdDev:  vs.MaxStdDev(),
			MeanStdDev: vs.MeanStdDev(),
		})
	}
	return out, nil
}

// Figure13 regenerates Figure 13: the intermediate-key-skew pathology.
// The query's extraction shape is even in every dimension, so under the
// corner-in-K key encoding every encoded key is even and stock modulo
// partitioning starves all odd Reduce tasks, doubling the load on the
// rest; partition+ distributes evenly. Expected shape: stock completes
// roughly 40% slower (the paper reports SIDR 42% faster).
//
// The paper ran this on a separate reduce-heavy query (its Figure 13
// x-axis reaches 5,000 s against Query 1's 1,400 s); tripling the
// per-pair Reduce cost reproduces that regime while keeping Query 1's
// key geometry, which is what actually triggers the pathology.
func Figure13(cfg simcluster.Config) ([]CurveResult, error) {
	cfg.ReducePerPair *= 3
	q := Query1() // ES {2,36,36,10}: tile corners even in every dimension
	enc := partition.CornerInKEncoding{
		InputSpace: q.Input.Shape,
		Extraction: q.Extraction,
	}
	stockPlan, err := paperPlanEncoded(q, core.EngineSciHadoop, 22, enc)
	if err != nil {
		return nil, err
	}
	w, err := PaperWorkload(stockPlan, 0)
	if err != nil {
		return nil, err
	}
	stockRes, err := Simulate(stockPlan, cfg, w)
	if err != nil {
		return nil, err
	}
	sidrCR, err := runConfig(q, core.EngineSIDR, 22, cfg, 0, "22 Reducers (SIDR)")
	if err != nil {
		return nil, err
	}
	return []CurveResult{summarize("22 Reducers (stock)", stockRes), sidrCR}, nil
}

// skewLoads computes the §4.3 keyblock-load imbalance statistics for a
// plan.
func skewLoads(p *core.Plan) skew.Summary {
	return skew.Summarize(p.Graph.ExpectedCount)
}

// Figure13Skew returns the load-imbalance summaries behind Figure 13:
// the pathological stock-modulo assignment and partition+'s balanced
// one, at 22 Reduce tasks over Query 1's key geometry.
func Figure13Skew() (stock, sidr skew.Summary, err error) {
	q := Query1()
	enc := partition.CornerInKEncoding{InputSpace: q.Input.Shape, Extraction: q.Extraction}
	stockPlan, err := paperPlanEncoded(q, core.EngineSciHadoop, 22, enc)
	if err != nil {
		return skew.Summary{}, skew.Summary{}, err
	}
	sidrPlan, err := PaperPlan(q, core.EngineSIDR, 22)
	if err != nil {
		return skew.Summary{}, skew.Summary{}, err
	}
	return skewLoads(stockPlan), skewLoads(sidrPlan), nil
}

func shortName(e core.Engine) string {
	switch e {
	case core.EngineHadoop:
		return "H"
	case core.EngineSciHadoop:
		return "SH"
	default:
		return "SS"
	}
}
