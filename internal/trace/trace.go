// Package trace records task-completion traces and converts them into the
// series the paper's figures plot: fraction of Map/Reduce tasks complete
// over time (Figures 9-11, 13) and cross-run variance statistics
// (Figure 12).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// taskType distinguishes trace entries.
type taskType int

const (
	// Map marks a Map task completion.
	Map taskType = iota
	// Reduce marks a Reduce task completion (its output is committed and
	// available — the paper's "results available" metric).
	Reduce
)

// completion is one task completing at a virtual or wall-clock time (in
// seconds).
type completion struct {
	Type taskType
	ID   int
	At   float64
}

// Trace is an ordered set of completions.
type Trace struct {
	completions []completion
}

// Add records a completion.
func (t *Trace) Add(typ taskType, id int, at float64) {
	t.completions = append(t.completions, completion{Type: typ, ID: id, At: at})
}

// times returns sorted completion times of one task type.
func (t *Trace) times(typ taskType) []float64 {
	var out []float64
	for _, c := range t.completions {
		if c.Type == typ {
			out = append(out, c.At)
		}
	}
	sort.Float64s(out)
	return out
}

// Makespan returns the completion time of the last task, or NaN for an
// empty trace.
func (t *Trace) Makespan() float64 {
	m := math.NaN()
	for _, c := range t.completions {
		if math.IsNaN(m) || c.At > m {
			m = c.At
		}
	}
	return m
}

// Series is a fraction-complete-over-time curve: Fractions[i] of the
// tasks had completed by Times[i]. It is exactly the data behind the
// paper's task-completion figures.
type Series struct {
	Times     []float64
	Fractions []float64
}

// SeriesOf builds the completion curve for one task type.
func (t *Trace) SeriesOf(typ taskType) Series {
	ts := t.times(typ)
	s := Series{Times: ts, Fractions: make([]float64, len(ts))}
	n := float64(len(ts))
	for i := range ts {
		s.Fractions[i] = float64(i+1) / n
	}
	return s
}

// FractionAt returns the fraction complete at time x (step function).
func (s Series) FractionAt(x float64) float64 {
	idx := sort.SearchFloat64s(s.Times, x)
	// idx is the count of times strictly below x; include equal times.
	for idx < len(s.Times) && s.Times[idx] <= x {
		idx++
	}
	if len(s.Times) == 0 {
		return 0
	}
	return float64(idx) / float64(len(s.Times))
}

// TimeAtFraction returns the earliest time the series reaches fraction f
// (0 < f <= 1), or NaN for an empty series.
func (s Series) TimeAtFraction(f float64) float64 {
	if len(s.Times) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(f*float64(len(s.Times)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.Times) {
		idx = len(s.Times) - 1
	}
	return s.Times[idx]
}

// Render prints the curve as "time fraction" rows sampled at each
// completion, in the format the benchmark harness emits for plotting.
func (s Series) Render(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", label)
	for i := range s.Times {
		fmt.Fprintf(&b, "%.1f\t%.4f\n", s.Times[i], s.Fractions[i])
	}
	return b.String()
}

// varianceStats summarises cross-run variation of completion times at
// each task rank: Mean[i] and StdDev[i] are the statistics of the i-th
// completion across runs (Figure 12's error bars).
type varianceStats struct {
	Mean   []float64
	StdDev []float64
}

// VarianceAcross computes per-rank mean and standard deviation across
// runs of the same configuration. All runs must have the same task count;
// it errors otherwise.
func VarianceAcross(runs []Series) (varianceStats, error) {
	if len(runs) == 0 {
		return varianceStats{}, fmt.Errorf("trace: no runs")
	}
	n := len(runs[0].Times)
	for i, r := range runs {
		if len(r.Times) != n {
			return varianceStats{}, fmt.Errorf("trace: run %d has %d tasks, want %d", i, len(r.Times), n)
		}
	}
	vs := varianceStats{Mean: make([]float64, n), StdDev: make([]float64, n)}
	for i := 0; i < n; i++ {
		var sum, sumSq float64
		for _, r := range runs {
			sum += r.Times[i]
			sumSq += r.Times[i] * r.Times[i]
		}
		m := sum / float64(len(runs))
		vs.Mean[i] = m
		v := sumSq/float64(len(runs)) - m*m
		if v < 0 {
			v = 0
		}
		vs.StdDev[i] = math.Sqrt(v)
	}
	return vs, nil
}

// MaxStdDev returns the largest per-rank standard deviation — the
// headline variance number Figure 12 compares across Reduce counts.
func (v varianceStats) MaxStdDev() float64 {
	m := 0.0
	for _, s := range v.StdDev {
		if s > m {
			m = s
		}
	}
	return m
}

// MeanStdDev returns the average per-rank standard deviation.
func (v varianceStats) MeanStdDev() float64 {
	if len(v.StdDev) == 0 {
		return 0
	}
	var sum float64
	for _, s := range v.StdDev {
		sum += s
	}
	return sum / float64(len(v.StdDev))
}
