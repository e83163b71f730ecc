package ops

import (
	"fmt"
	"math"

	"sidr/internal/kv"
)

// SideAgg is one side's fully merged aggregate for one join key (one
// extraction-shape tile): the distributive moments every join operator
// consumes, plus the raw samples in row-major cell order for operators
// that declare NeedsSamples. NaN source cells are missing data and are
// never accumulated, so Count is the number of present cells.
type SideAgg struct {
	Sum     float64
	Count   int64
	Samples []float64
}

// JoinOperator combines the two sides' co-keyed aggregates into one
// output row. Join queries are inner joins on tiles: a key missing from
// either side produces no row (ok = false).
type JoinOperator interface {
	// Name is the operator's query-language name.
	Name() string
	// NeedsSamples reports whether Map tasks must retain raw samples for
	// this operator. Sample-carrying operators are holistic: heavy-key
	// re-tiling may range-split their keyblocks but never cell-splits a
	// single tile (sub-aggregates would lose positional alignment).
	NeedsSamples() bool
	// Stats declares the statistics Combine reads besides Count and the
	// samples; the only one a SideAgg carries is Sum. Map tasks fold only
	// these, and every other statistic stays +0.
	Stats() kv.Stats
	// Combine computes the output for one join key from both sides'
	// folded aggregates. ok is false when the row must be omitted. It
	// must not modify a SideAgg's Samples: they are the windows the Map
	// task, or a decoded spill, left them in, which the join Reduce
	// reads in place.
	Combine(a, b SideAgg, params ...float64) (out []float64, ok bool)
}

// jfn is a table-driven join operator.
type jfn struct {
	name    string
	samples bool
	stats   kv.Stats
	combine func(a, b SideAgg) []float64
}

func (f jfn) Name() string       { return f.name }
func (f jfn) NeedsSamples() bool { return f.samples }
func (f jfn) Stats() kv.Stats    { return f.stats }
func (f jfn) Combine(a, b SideAgg, _ ...float64) ([]float64, bool) {
	if a.Count == 0 || b.Count == 0 {
		return nil, false
	}
	return f.combine(a, b), true
}

var joinRegistry = map[string]JoinOperator{}

func registerJoin(op JoinOperator) {
	if _, dup := joinRegistry[op.Name()]; dup {
		panic("ops: duplicate join operator " + op.Name())
	}
	joinRegistry[op.Name()] = op
}

func init() {
	// jsum: total of both sides' present cells.
	registerJoin(jfn{name: "jsum", stats: kv.StatSum, combine: func(a, b SideAgg) []float64 {
		return []float64{a.Sum + b.Sum}
	}})
	// javg: mean of the two per-side means, so a side with fewer present
	// cells still carries half the weight.
	registerJoin(jfn{name: "javg", stats: kv.StatSum, combine: func(a, b SideAgg) []float64 {
		return []float64{(a.Sum/float64(a.Count) + b.Sum/float64(b.Count)) / 2}
	}})
	// jcorr: Pearson correlation of the two sides' sample vectors zipped
	// positionally (row-major cell order, missing cells compressed out);
	// pairs beyond the shorter vector are dropped. Degenerate variance on
	// either side yields 0.
	registerJoin(jfn{name: "jcorr", samples: true, combine: func(a, b SideAgg) []float64 {
		n := len(a.Samples)
		if len(b.Samples) < n {
			n = len(b.Samples)
		}
		if n == 0 {
			return []float64{0}
		}
		var sa, sb, sab, saa, sbb float64
		for i := 0; i < n; i++ {
			x, y := a.Samples[i], b.Samples[i]
			sa += x
			sb += y
			sab += x * y
			saa += x * x
			sbb += y * y
		}
		fn := float64(n)
		cov := sab - sa*sb/fn
		va := saa - sa*sa/fn
		vb := sbb - sb*sb/fn
		if va <= 0 || vb <= 0 {
			return []float64{0}
		}
		return []float64{cov / math.Sqrt(va*vb)}
	}})
}

// LookupJoin resolves a join operator by its query-language name.
func LookupJoin(name string) (JoinOperator, error) {
	op, ok := joinRegistry[name]
	if !ok {
		return nil, fmt.Errorf("ops: unknown join operator %q", name)
	}
	return op, nil
}
