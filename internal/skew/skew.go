// Package skew quantifies intermediate-data imbalance across keyblocks —
// the phenomenon §4.3 studies. partition+'s guarantee is a bound on
// these statistics; Hadoop's modulo partitioner offers none and can
// starve half the Reduce tasks outright.
package skew

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the imbalance statistics of one keyblock load vector.
type Summary struct {
	// Keyblocks is the number of keyblocks measured.
	Keyblocks int `json:"keyblocks"`
	// Total is the summed load.
	Total int64 `json:"total"`
	// Starved counts keyblocks with zero load.
	Starved int `json:"starved"`
	// Max and Min are the extreme loads (Min over all keyblocks,
	// including starved ones).
	Max int64 `json:"max"`
	Min int64 `json:"min"`
	// MaxOverMean is the heaviest keyblock relative to the mean load; 1
	// is perfect balance.
	MaxOverMean float64 `json:"max_over_mean"`
	// CV is the coefficient of variation (σ/mean); 0 is perfect balance.
	CV float64 `json:"cv"`
	// Gini is the Gini coefficient of the load distribution in [0, 1);
	// 0 is perfect balance, values near 1 mean a few keyblocks hold
	// nearly everything.
	Gini float64 `json:"gini"`
}

// Summarize computes imbalance statistics for per-keyblock loads
// (typically depgraph.Graph.ExpectedCount).
func Summarize(loads []int64) Summary {
	s := Summary{Keyblocks: len(loads)}
	if len(loads) == 0 {
		return s
	}
	s.Min = loads[0]
	var sum, sumSq float64
	for _, l := range loads {
		if l == 0 {
			s.Starved++
		}
		if l > s.Max {
			s.Max = l
		}
		if l < s.Min {
			s.Min = l
		}
		s.Total += l
		sum += float64(l)
		sumSq += float64(l) * float64(l)
	}
	n := float64(len(loads))
	mean := sum / n
	if mean > 0 {
		s.MaxOverMean = float64(s.Max) / mean
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		s.CV = math.Sqrt(variance) / mean
		s.Gini = gini(loads, sum)
	}
	return s
}

// gini computes the Gini coefficient via the sorted-rank formula.
func gini(loads []int64, sum float64) float64 {
	sorted := append([]int64(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	var weighted float64
	for i, l := range sorted {
		weighted += float64(i+1) * float64(l)
	}
	return (2*weighted)/(n*sum) - (n+1)/n
}

// Format renders the summary as one diagnostics line.
func (s Summary) Format() string {
	return fmt.Sprintf("keyblocks=%d total=%d starved=%d max/mean=%.3f cv=%.3f gini=%.3f",
		s.Keyblocks, s.Total, s.Starved, s.MaxOverMean, s.CV, s.Gini)
}
