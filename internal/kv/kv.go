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

// merge folds another value into v (the combiner/reducer merge step).
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

// MergeSorted performs the Reduce-side k-way merge: each stream is one
// Map task's already-sorted output for this keyblock; the result is the
// fully merged ⟨k', folded-value⟩ list in row-major key order — without
// re-sorting the concatenation. Streams must individually be sorted by
// key (as Map tasks emit them); values of equal keys are folded through
// Value.merge. Input streams are not modified.
//
// The merge rides the streams' runs: the head stream's whole run of the
// popped key is folded before the heap is touched again. Equal keys leave
// the heap in ascending stream order and sit contiguously in their
// stream, so this is the order a pair-at-a-time merge folds them in, and
// a key is complete before the next one opens. The keys' samples are
// therefore laid out one after another in a single array sized by a count
// of the streams' samples: a key's Samples is a cap-clipped window of it
// (nil when it has none), so appending to one key never writes into the
// next.
func MergeSorted(streams [][]Pair) []Pair {
	// Heap of stream heads ordered by key, ties by stream index for
	// determinism.
	type head struct {
		stream int
		idx    int
	}
	heads := make([]head, 0, len(streams))
	// keys bounds the output from above: a stream contributes at most
	// one key per stretch of pairs sharing a key slice — one per pair for
	// a Map task's output, fewer for a decoded stream that repeats keys.
	// samples bounds what the keys' windows receive.
	keys, samples := 0, 0
	for s, ps := range streams {
		for i := range ps {
			if i == 0 || !aliased(ps[i].Key, ps[i-1].Key) {
				keys++
			}
			samples += len(ps[i].Value.Samples)
		}
		if len(ps) > 0 {
			heads = append(heads, head{stream: s})
		}
	}
	if keys == 0 {
		return nil
	}
	less := func(a, b head) bool {
		c := streams[a.stream][a.idx].Key.Compare(streams[b.stream][b.idx].Key)
		if c != 0 {
			return c < 0
		}
		return a.stream < b.stream
	}
	// Sift-based binary heap over heads.
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
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

	out := make([]Pair, 0, keys)
	arena, at := make([]float64, samples), 0
	// seal clips the last key's window to the samples it received; the
	// next key's window starts where it ends.
	seal := func() {
		v := &out[len(out)-1].Value
		n := len(v.Samples)
		v.Samples = nil
		if n > 0 {
			v.Samples = arena[at : at+n : at+n]
		}
		at += n
	}
	for len(heads) > 0 {
		ps := streams[heads[0].stream]
		run := ps[heads[0].idx:]
		n := 1
		for n < len(run) && sameKey(run[n].Key, run[0].Key) {
			n++
		}
		run = run[:n]
		if last := len(out) - 1; last >= 0 && out[last].Key.Equal(run[0].Key) {
			v := &out[last].Value
			for i := range run {
				v.merge(run[i].Value)
			}
		} else {
			if len(out) > 0 {
				seal()
			}
			// The key's first pair is copied, as Clone would, into the
			// window that runs to the end of the arena.
			v := run[0].Value
			v.Samples = append(arena[at:at:len(arena)], run[0].Value.Samples...)
			for i := range run[1:] {
				v.merge(run[1+i].Value)
			}
			out = append(out, Pair{Key: run[0].Key, Value: v})
		}
		if heads[0].idx += n; heads[0].idx == len(ps) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	seal()
	return out
}
