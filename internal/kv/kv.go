// Package kv defines the intermediate key/value representation flowing
// between Map and Reduce tasks. Keys are coordinates in the intermediate
// keyspace K'; values carry either pre-aggregated state (distributive
// operators), raw samples (holistic operators), or filtered samples.
//
// Every Value carries Count — the number of source ⟨k,v⟩ pairs it
// represents. This is exactly the annotation SIDR's §3.2.1 "approach 2"
// adds to intermediate data so a Reduce task can verify it has received
// all inputs for a key before processing, even after combiners folded an
// unknown number of source pairs together.
package kv

import (
	"fmt"
	"math"

	"sidr/internal/coords"
)

// Value is the intermediate value for one (key, map-task) contribution.
// The zero Value is an empty aggregate ready for AddRun.
type Value struct {
	// Aggregate state for distributive operators.
	Sum   float64
	SumSq float64
	Min   float64
	Max   float64

	// Count is the number of source ⟨k,v⟩ pairs this value represents
	// (the SIDR correctness annotation). It is maintained by AddRun and
	// merge regardless of operator kind. A Map task that finishes a
	// split-local key keeps it: one sample then stands for Count points.
	Count int64

	// Samples holds raw values for holistic operators and matching
	// values for filters. Nil when the operator runs in aggregate-only
	// mode.
	Samples []float64
}

// Stats is a set of the statistics besides Count that a Value folds. An
// operator declares the ones it reads (ops.Operator.Stats); the Map kernel
// folds only those, and every other statistic of its pairs stays +0.
// Count is not in the set: it is the §3.2.1 kv-count annotation, which
// every value carries.
type Stats uint8

const (
	StatSum    Stats = 1 << iota // Sum
	StatSumSq                    // SumSq
	StatMinMax                   // Min and Max
)

// AddRun folds xs into the value in order, for the statistics in st and
// Count. Each statistic in st keeps its single accumulator and sees the
// observations in the same sequence as folding them one point at a time
// would, so it is bit-identical to that per-point definition (the tests
// hold it); a statistic outside st is left as it is.
// The set is read once per run: each combination an operator declares
// has a loop of its own.
func (v *Value) AddRun(xs []float64, st Stats, keepSamples bool) {
	if len(xs) == 0 {
		return
	}
	switch st &^ StatMinMax {
	case StatSum:
		v.Sum = sum(v.Sum, xs)
	case StatSumSq:
		v.SumSq = sumSq(v.SumSq, xs)
	case StatSum | StatSumSq:
		v.Sum, v.SumSq = sums(v.Sum, v.SumSq, xs)
	}
	if st&StatMinMax != 0 {
		v.Min, v.Max = v.minMax(xs)
	}
	v.Count += int64(len(xs))
	if keepSamples {
		v.Samples = append(v.Samples, xs...)
	}
}

// The fold loops, one per statistic: each adds xs to its accumulator in
// order. minMax needs a non-empty xs; a value with no observation yet
// starts from xs[0].
func sum(s float64, xs []float64) float64 {
	for _, x := range xs {
		s += x
	}
	return s
}

func sumSq(q float64, xs []float64) float64 {
	for _, x := range xs {
		q += x * x
	}
	return q
}

func sums(s, q float64, xs []float64) (float64, float64) {
	for _, x := range xs {
		s += x
		q += x * x
	}
	return s, q
}

func (v *Value) minMax(xs []float64) (lo, hi float64) {
	lo, hi = v.Min, v.Max
	if v.Count == 0 {
		lo, hi = xs[0], xs[0]
	}
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// LineFoldOf returns the line fold of the statistics st, which a scan
// picks once. The fold folds one innermost line into a tile of values:
// for each span in order, line[sp.Lo:sp.Hi] into tile[base+sp.Cell], as
// AddRun without samples would. A line's spans name distinct cells
// (coords.TileWalk.Spans), so every value still sees its observations in
// source order, and the fold is bit-identical to AddRun's.
func LineFoldOf(st Stats) func(tile []Value, base int64, line []float64, spans []coords.Span) {
	return lineFolds[st&(StatSum|StatSumSq|StatMinMax)]
}

var lineFolds = [8]func(tile []Value, base int64, line []float64, spans []coords.Span){
	0: func(tile []Value, base int64, _ []float64, spans []coords.Span) {
		for _, sp := range spans {
			tile[base+sp.Cell].Count += sp.Hi - sp.Lo
		}
	},
	StatSum: func(tile []Value, base int64, line []float64, spans []coords.Span) {
		for _, sp := range spans {
			v := &tile[base+sp.Cell]
			v.Sum = sum(v.Sum, line[sp.Lo:sp.Hi])
			v.Count += sp.Hi - sp.Lo
		}
	},
	StatSumSq: func(tile []Value, base int64, line []float64, spans []coords.Span) {
		for _, sp := range spans {
			v := &tile[base+sp.Cell]
			v.SumSq = sumSq(v.SumSq, line[sp.Lo:sp.Hi])
			v.Count += sp.Hi - sp.Lo
		}
	},
	StatSum | StatSumSq: func(tile []Value, base int64, line []float64, spans []coords.Span) {
		for _, sp := range spans {
			v := &tile[base+sp.Cell]
			v.Sum, v.SumSq = sums(v.Sum, v.SumSq, line[sp.Lo:sp.Hi])
			v.Count += sp.Hi - sp.Lo
		}
	},
}

// A set with Min and Max folds them in a pass of their own, then its sums
// and Count: the accumulators are independent, and the first pass must
// read Count before the second raises it.
func init() {
	for st := StatMinMax; st < StatMinMax<<1; st++ {
		rest := lineFolds[st&^StatMinMax]
		lineFolds[st] = func(tile []Value, base int64, line []float64, spans []coords.Span) {
			for _, sp := range spans {
				v := &tile[base+sp.Cell]
				v.Min, v.Max = v.minMax(line[sp.Lo:sp.Hi])
			}
			rest(tile, base, line, spans)
		}
	}
}

// merge folds another value into v (the combiner/reducer merge step). It
// is one compiled body: the NaN a sum of two NaNs keeps depends on the
// operand order the compiler picks, which differs between inlined sites.
//
//go:noinline
func (v *Value) merge(o Value) {
	if o.Count == 0 {
		return
	}
	if v.Count == 0 {
		v.Min, v.Max = o.Min, o.Max
	} else {
		if o.Min < v.Min {
			v.Min = o.Min
		}
		if o.Max > v.Max {
			v.Max = o.Max
		}
	}
	v.Sum += o.Sum
	v.SumSq += o.SumSq
	v.Count += o.Count
	if o.Samples != nil {
		v.Samples = append(v.Samples, o.Samples...)
	}
}

// Mean returns the running mean; 0 for an empty value.
func (v *Value) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// StdDev returns the population standard deviation; 0 for fewer than one
// observation.
func (v *Value) StdDev() float64 {
	if v.Count == 0 {
		return 0
	}
	m := v.Mean()
	variance := v.SumSq/float64(v.Count) - m*m
	if variance < 0 {
		variance = 0 // numeric noise
	}
	return math.Sqrt(variance)
}

// ApproxBytes estimates the serialised size of the value, used by the
// shuffle accounting and the cluster simulator's data models.
func (v Value) ApproxBytes() int64 {
	return 5*8 + int64(len(v.Samples))*8
}

// Pair is one intermediate ⟨k', v'⟩ record.
type Pair struct {
	Key   coords.Coord
	Value Value
}

// String renders a pair compactly for diagnostics.
func (p Pair) String() string {
	return fmt.Sprintf("<%v: n=%d sum=%g>", p.Key, p.Value.Count, p.Value.Sum)
}

// EachKey is the Reduce-side walk (§2.3): each stream is one Map task's
// sorted output for a keyblock, and fn gets each distinct key in key
// order with the values of every pair that holds it folded through
// Value.merge, in ascending stream order — the ⟨k', merged-value⟩ list
// Hadoop's merge yields, without building it. The walk never writes a
// stream: a key one pair holds is handed over where it lies, and a key
// several pairs hold is folded into a window of one arena, sized by a
// count of the streams' samples and allocated on first need. fn gets the
// samples cap-clipped, nil when there are none, and may reorder them in
// place, a stream's window included: the caller owns the streams.
func EachKey(streams [][]Pair, fn func(key coords.Coord, v Value)) {
	walk(streams, false, fn)
}

// KeyBound bounds from above the number of keys EachKey hands over: one
// per stretch of a stream's pairs sharing a key slice.
func KeyBound(streams [][]Pair) int {
	keys := 0
	for _, ps := range streams {
		for i := range ps {
			if i == 0 || !aliased(ps[i].Key, ps[i-1].Key) {
				keys++
			}
		}
	}
	return keys
}

// walk is EachKey; with own set it folds every key, not only the ones
// several pairs hold, into a window of the arena.
func walk(streams [][]Pair, own bool, fn func(key coords.Coord, v Value)) {
	// heads is a binary heap of the streams' next pairs, ordered by key,
	// ties by stream index.
	type head struct{ stream, idx int }
	heads := make([]head, 0, len(streams))
	for s, ps := range streams {
		if len(ps) > 0 {
			heads = append(heads, head{stream: s})
		}
	}
	less := func(a, b head) bool {
		if c := streams[a.stream][a.idx].Key.Compare(streams[b.stream][b.idx].Key); c != 0 {
			return c < 0
		}
		return a.stream < b.stream
	}
	down := func(i int) {
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heads) && less(heads[l], heads[m]) {
				m = l
			}
			if r < len(heads) && less(heads[r], heads[m]) {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}

	// v is the open key's value: its samples are the window of the pair
	// that opened it until the arena owns them.
	var (
		key  coords.Coord
		v    Value
		open bool
		a    arena
	)
	for len(heads) > 0 {
		pr := &streams[heads[0].stream][heads[0].idx]
		switch {
		case open && key.Equal(pr.Key):
			// The pairs after pr that repeat its key slice continue the
			// key too — a Map task emits a key once, a decoded spill may
			// repeat it — so the walk rides them without the heap.
			ps := streams[heads[0].stream]
			for {
				if o := &pr.Value; o.Count != 0 {
					if !a.owned && len(o.Samples) > 0 {
						a.adopt(streams, &v)
					}
					v.merge(*o)
				}
				next := heads[0].idx + 1
				if next == len(ps) || !aliased(ps[next].Key, pr.Key) {
					break
				}
				heads[0].idx, pr = next, &ps[next]
			}
		default:
			if open {
				a.seal(&v)
				fn(key, v)
			}
			key, v, open, a.owned = pr.Key, pr.Value, true, false
			v.Samples = clip(v.Samples)
			if own {
				a.adopt(streams, &v)
			}
		}
		if heads[0].idx++; heads[0].idx == len(streams[heads[0].stream]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	if open {
		a.seal(&v)
		fn(key, v)
	}
}

// clip caps s at its length; an empty s is nil.
func clip(s []float64) []float64 {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// arena holds the samples of the keys the walk folds: one array, sized by
// a count of the streams' samples and allocated on first need. While
// owned is set, the open key's samples are its window from at to the end.
// It is kept out of the walk's loop variables, which alone are hot.
type arena struct {
	buf   []float64
	at    int
	owned bool
}

// adopt moves v's samples into the arena.
func (a *arena) adopt(streams [][]Pair, v *Value) {
	if a.buf == nil {
		n := 0
		for _, ps := range streams {
			for i := range ps {
				n += len(ps[i].Value.Samples)
			}
		}
		a.buf = make([]float64, n)
	}
	v.Samples, a.owned = append(a.buf[a.at:a.at:len(a.buf)], v.Samples...), true
}

// seal clips an owned window to the samples it received; the next one
// starts where it ends.
func (a *arena) seal(v *Value) {
	if a.owned {
		a.at += len(v.Samples)
		v.Samples = clip(v.Samples)
	}
}

// MergeSorted collects the walk into the merged ⟨k', folded-value⟩ list,
// the caller's own: every key's samples are copied into one array, each a
// cap-clipped window of it. The program reduces through EachKey; only the
// replay harness (bench/replay.go) and the tests read this list.
func MergeSorted(streams [][]Pair) []Pair {
	keys := KeyBound(streams)
	if keys == 0 {
		return nil
	}
	out := make([]Pair, 0, keys)
	walk(streams, true, func(key coords.Coord, v Value) {
		out = append(out, Pair{Key: key, Value: v})
	})
	return out
}
