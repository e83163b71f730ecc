// Package ops implements the operator library applied by structural
// queries: the function each Reduce task evaluates over the values of one
// intermediate key (one extraction-shape tile of input).
//
// Operators are classified the way the MapReduce-Online comparison in the
// paper requires (§5): distributive operators admit combiners and
// constant-size intermediate state; holistic operators (median, sort)
// need every raw sample; filters emit variable-length results and admit
// combiners that pre-filter.
package ops

import (
	"fmt"
	"math"
	"sort"

	"sidr/internal/kv"
)

// opKind classifies an operator's aggregation structure.
type opKind int

const (
	// distributive operators (sum, min, ...) can be computed from
	// partial aggregates; combiners are lossless.
	distributive opKind = iota
	// Holistic operators (median, sort) need all raw samples at the
	// Reduce task; combiners may only concatenate.
	Holistic
	// Filter operators emit the subset of samples satisfying a
	// predicate; combiners may pre-filter.
	Filter
)

// String names the kind.
func (k opKind) String() string {
	switch k {
	case distributive:
		return "distributive"
	case Holistic:
		return "holistic"
	case Filter:
		return "filter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Operator evaluates a structural query's function over one intermediate
// key's merged value.
type Operator interface {
	// Name is the operator's query-language name.
	Name() string
	// Kind classifies the operator.
	Kind() opKind
	// NeedsSamples reports whether Map tasks must retain raw samples in
	// intermediate values for this operator.
	NeedsSamples() bool
	// Stats declares the statistics Apply reads besides Count and the
	// samples. Map tasks fold only these; every other statistic of the
	// value Apply receives is +0.
	Stats() kv.Stats
	// Apply computes the outputs for one intermediate key from its fully
	// merged value. params carry the operator parameters (e.g. a filter
	// threshold, or a range's two bounds); most operators ignore them.
	// distributive and holistic operators return exactly one value;
	// filters return zero or more, in the order v.Samples holds them.
	//
	// An operator that keeps samples may reorder v.Samples in place and
	// may return a window of it, but leaves it holding the values it was
	// handed: callers pass a value they own, such as a window of a stream
	// the Reduce walks in place (kv.EachKey).
	Apply(v kv.Value, params ...float64) []float64
}

// fn is a table-driven operator implementation. Filters set keep and part,
// median and percentile set finish, and every other operator sets apply.
type fn struct {
	name    string
	kind    opKind
	samples bool
	stats   kv.Stats // the statistics apply reads
	nparams int      // parameters the operator consumes (for query validation)
	apply   func(v kv.Value, param float64) []float64
	// keep is a filter's selection loop (see Selector), part the same
	// predicate as Apply applies it to a key's samples (partition).
	keep func(dst, run []float64, p, p2 float64) []float64
	part func(s []float64, p, p2 float64) int
	// finish is a holistic operator's reduction of one key's samples to
	// its one output (see Finisher); Apply runs it over a key's samples
	// in place.
	finish func(s []float64, p float64) float64
	// prune, when set, derives the conservative block-level predicate
	// the structural index (internal/sidx) prunes splits with.
	prune func(params []float64) func(min, max float64) bool
}

func (f fn) Name() string       { return f.name }
func (f fn) Kind() opKind       { return f.kind }
func (f fn) NeedsSamples() bool { return f.samples }
func (f fn) Stats() kv.Stats    { return f.stats }
func (f fn) Apply(v kv.Value, params ...float64) []float64 {
	p, p2 := two(params)
	if f.part != nil {
		// Survivors are moved to the front of the key's samples, in the
		// order they arrived, and returned cap-clipped; nil when none
		// survived.
		n := f.part(v.Samples, p, p2)
		if n == 0 {
			return nil
		}
		return v.Samples[:n:n]
	}
	if f.finish != nil {
		return []float64{f.finish(v.Samples, p)}
	}
	return f.apply(v, p)
}

// two returns the first two parameters, zero where absent.
func two(params []float64) (p, p2 float64) {
	if len(params) > 0 {
		p = params[0]
	}
	if len(params) > 1 {
		p2 = params[1]
	}
	return p, p2
}

var registry = map[string]Operator{}

func register(op Operator) {
	if _, dup := registry[op.Name()]; dup {
		panic("ops: duplicate operator " + op.Name())
	}
	registry[op.Name()] = op
}

func init() {
	register(fn{name: "sum", kind: distributive, stats: kv.StatSum, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{v.Sum}
	}})
	register(fn{name: "count", kind: distributive, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{float64(v.Count)}
	}})
	register(fn{name: "avg", kind: distributive, stats: kv.StatSum, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{v.Mean()}
	}})
	register(fn{name: "min", kind: distributive, stats: kv.StatMinMax, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{v.Min}
	}})
	register(fn{name: "max", kind: distributive, stats: kv.StatMinMax, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{v.Max}
	}})
	register(fn{name: "stddev", kind: distributive, stats: kv.StatSum | kv.StatSumSq, apply: func(v kv.Value, _ float64) []float64 {
		return []float64{v.StdDev()}
	}})
	// The holistic operators order v.Samples in place. median and
	// percentile select the order statistics they read (selectK) instead
	// of sorting every sample.
	register(fn{name: "median", kind: Holistic, samples: true, finish: func(s []float64, _ float64) float64 {
		if len(s) == 0 {
			return 0
		}
		h := len(s) / 2
		below := selectK(s, h)
		if len(s)%2 == 1 {
			return s[h]
		}
		return (below + s[h]) / 2
	}})
	register(fn{name: "sort", kind: Holistic, samples: true, apply: func(v kv.Value, _ float64) []float64 {
		sort.Float64s(v.Samples)
		return v.Samples
	}})
	// The three value-predicated filters also declare how the structural
	// index may prune for them: a split is droppable when no overlapping
	// block's [min, max] can contain a satisfying sample. The block range
	// is a superset of the split's values, so the predicate is
	// conservative — it never drops a contributing split.
	register(fn{name: "filter_gt", kind: Filter, samples: true, nparams: 1,
		keep: func(dst, run []float64, p, _ float64) []float64 {
			return selectRun(dst, run, func(x float64) int { return b2i(x > p) })
		},
		part: func(s []float64, p, _ float64) int {
			return partition(s, func(x float64) int { return b2i(x > p) })
		},
		prune: func(params []float64) func(min, max float64) bool {
			p := params[0]
			return func(_, max float64) bool { return max > p }
		}})
	register(fn{name: "filter_lt", kind: Filter, samples: true, nparams: 1,
		keep: func(dst, run []float64, p, _ float64) []float64 {
			return selectRun(dst, run, func(x float64) int { return b2i(x < p) })
		},
		part: func(s []float64, p, _ float64) int {
			return partition(s, func(x float64) int { return b2i(x < p) })
		},
		prune: func(params []float64) func(min, max float64) bool {
			p := params[0]
			return func(min, _ float64) bool { return min < p }
		}})
	// filter_range keeps samples in the closed interval [lo, hi]; the
	// query syntax supplies both bounds as "param lo,hi".
	register(fn{name: "filter_range", kind: Filter, samples: true, nparams: 2,
		keep: func(dst, run []float64, lo, hi float64) []float64 {
			return selectRun(dst, run, func(x float64) int { return b2i(x >= lo) & b2i(x <= hi) })
		},
		part: func(s []float64, lo, hi float64) int {
			return partition(s, func(x float64) int { return b2i(x >= lo) & b2i(x <= hi) })
		},
		prune: func(params []float64) func(min, max float64) bool {
			lo, hi := params[0], params[1]
			return func(min, max float64) bool { return max >= lo && min <= hi }
		}})
	register(fn{name: "range", kind: distributive, stats: kv.StatMinMax, apply: func(v kv.Value, _ float64) []float64 {
		if v.Count == 0 {
			return []float64{0}
		}
		return []float64{v.Max - v.Min}
	}})
	register(fn{name: "absmax", kind: distributive, stats: kv.StatMinMax, apply: func(v kv.Value, _ float64) []float64 {
		a, b := v.Min, v.Max
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			return []float64{a}
		}
		return []float64{b}
	}})
	// percentile returns the p-th percentile (param in [0, 100]) using
	// nearest-rank; param 50 matches median for odd sample counts.
	register(fn{name: "percentile", kind: Holistic, samples: true, nparams: 1, finish: func(s []float64, p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		selectK(s, rank-1)
		return s[rank-1]
	}})
}

// Lookup resolves an operator by its query-language name.
func Lookup(name string) (Operator, error) {
	op, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator %q", name)
	}
	return op, nil
}

// NumParams returns how many parameters the operator consumes (0, 1 or
// 2) — the query parser validates the "param" clause against it.
func NumParams(op Operator) int {
	if f, ok := op.(fn); ok {
		return f.nparams
	}
	return 0
}

// PrunePredicate returns the conservative block-level predicate the
// structural index uses to drop splits for a value-predicated operator:
// keep(min, max) is true when a block whose values lie in [min, max]
// may contain a satisfying sample. ok is false for operators that admit
// no pruning (aggregates consume every point regardless of value).
func PrunePredicate(op Operator, params ...float64) (keep func(min, max float64) bool, ok bool) {
	f, isFn := op.(fn)
	if !isFn || f.prune == nil {
		return nil, false
	}
	ps := make([]float64, max(f.nparams, len(params)))
	copy(ps, params)
	return f.prune(ps), true
}

// Selector returns a filter's selection loop for the given parameters,
// the predicate its Apply keeps: sel(dst, run) appends the values of run the
// predicate keeps to dst, in run order, and returns the extended slice.
// dst must have capacity for len(dst)+len(run) values — the loop stores
// every value and advances past the kept ones, so it does not branch on
// the data — and may share run's array when it starts at or before run.
// No predicate keeps a NaN. ok is false for operators that are not
// filters.
func Selector(op Operator, params ...float64) (sel func(dst, run []float64) []float64, ok bool) {
	f, isFn := op.(fn)
	if !isFn || f.keep == nil {
		return nil, false
	}
	p, p2 := two(params)
	return func(dst, run []float64) []float64 { return f.keep(dst, run, p, p2) }, true
}

// Finisher returns a holistic operator's reduction for the given
// parameters, the one its Apply runs: finish(s) is the operator's one
// output for a key whose samples are s, and may reorder s but leaves it
// holding the values it was handed. It selects the order statistics it
// reads in s's own memory (selectK) and allocates nothing; where −0 and
// +0 tie at a rank, −0 is the lower. Applied to a value whose one
// sample is finish(s), Apply returns that sample unchanged, so a Map
// task that holds every sample of a key can ship the key finished. ok is
// false for every other operator — sort, the filters and the
// distributive operators.
func Finisher(op Operator, params ...float64) (finish func(samples []float64) float64, ok bool) {
	f, isFn := op.(fn)
	if !isFn || f.finish == nil {
		return nil, false
	}
	p, _ := two(params)
	return func(s []float64) float64 { return f.finish(s, p) }, true
}

// selectRun is a filter's selection loop (see Selector) over its
// predicate: kept(x) is 1 when the filter keeps x, else 0.
func selectRun(dst, run []float64, kept func(x float64) int) []float64 {
	n := len(dst)
	dst = dst[:n+len(run)]
	for _, x := range run {
		dst[n] = x
		n += kept(x)
	}
	return dst[:n]
}

// partition is the same predicate applied in place: it swaps the kept
// values of s to its front, in order, and returns how many there are.
// The rejected ones stay behind them, so s keeps its values. Like
// selectRun it stores every value and advances past the kept ones, so
// it does not branch on the data; selectKeys partitions its int64 keys
// with it.
func partition[T any](s []T, kept func(x T) int) int {
	n := 0
	for i, x := range s {
		s[i], s[n] = s[n], x
		n += kept(x)
	}
	return n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
