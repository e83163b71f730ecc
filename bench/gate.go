package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/join"
)

// The correctness gate: every timed result — in-process, clustered, or
// decoded from the HTTP wire — must hash equal to the reference the
// in-process SciHadoop engine (global barrier, no index, no re-tiling,
// no cluster) produced for the same query at set-up.

// perturb, when set (tests only), returns a corrupted copy of a result's
// values before they are checked, proving the gate fires.
var perturb func(values [][]float64) [][]float64

// resultHash is the hash the gate compares: hashRows of the result as
// the system returned it (tests may corrupt it first).
func resultHash(keys [][]int64, values [][]float64) uint64 {
	if perturb != nil {
		values = perturb(values)
	}
	return hashRows(keys, values)
}

// verify reports whether a result hashes equal to its reference.
func verify(keys [][]int64, values [][]float64, want uint64) bool {
	return resultHash(keys, values) == want
}

// hashRows hashes a result's sorted keys and values bit-exactly:
// math.Float64bits, so -0 ≠ +0 and NaN payloads count.
func hashRows(keys [][]int64, values [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(len(keys)))
	for i, k := range keys {
		put(uint64(len(k)))
		for _, x := range k {
			put(uint64(x))
		}
		put(uint64(len(values[i])))
		for _, v := range values[i] {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// reference runs the query on the reference configuration and returns
// its hash. b is nil for single-input queries.
func reference(a, b *sidr.Dataset, q *sidr.Query, reducers int, splitPoints int64) (uint64, error) {
	opts := sidr.RunOptions{Engine: sidr.SciHadoop, Reducers: reducers, SplitPoints: splitPoints, NoJoinRetile: true}
	var res *sidr.Result
	var err error
	if b != nil {
		res, err = sidr.RunJoin(a, b, q, opts)
	} else {
		res, err = sidr.Run(a, q, opts)
	}
	if err != nil {
		return 0, err
	}
	return hashRows(res.Keys, res.Values), nil
}

// keyblockOut is one keyblock's reduce output, the form the clustered
// coordinator, the in-process engine's event path and the layer replay
// all produce before assembly.
type keyblockOut struct {
	keys   []coords.Coord
	values [][]float64
}

// assemble flattens per-keyblock outputs (indexed by keyblock) into the
// globally row-major sorted result every engine returns, ready for
// hashRows. A join's rows go through join.Assemble, which also folds the
// share partials of re-tiled keyblocks; jp is nil otherwise.
func assemble(jp *join.Plan, outs []keyblockOut) ([][]int64, [][]float64, error) {
	if jp != nil {
		var rows []join.Row
		for kb, o := range outs {
			for i, k := range o.keys {
				rows = append(rows, join.Row{KB: kb, Key: k, Values: o.values[i]})
			}
		}
		assembled, err := join.Assemble(jp, rows)
		if err != nil {
			return nil, nil, err
		}
		keys := make([][]int64, len(assembled))
		values := make([][]float64, len(assembled))
		for i, r := range assembled {
			keys[i], values[i] = r.Key, r.Values
		}
		return keys, values, nil
	}
	type row struct {
		key  coords.Coord
		vals []float64
	}
	var rows []row
	for _, o := range outs {
		for i, k := range o.keys {
			rows = append(rows, row{k, o.values[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key.Less(rows[j].key) })
	keys := make([][]int64, len(rows))
	values := make([][]float64, len(rows))
	for i, r := range rows {
		keys[i], values[i] = r.key, r.vals
	}
	return keys, values, nil
}

// firstMark notes when the first partial result carrying a value arrived;
// partial callbacks may come from several goroutines.
type firstMark struct {
	mu sync.Mutex
	at time.Time
}

func (f *firstMark) note(values [][]float64) {
	if !hasValue(values) {
		return
	}
	f.mu.Lock()
	if f.at.IsZero() {
		f.at = time.Now()
	}
	f.mu.Unlock()
}

// since writes the time from start to the mark into the sample, if any
// partial carried a value.
func (f *firstMark) since(start time.Time, s *sample) {
	if !f.at.IsZero() {
		s.first, s.gotFirst = f.at.Sub(start).Seconds(), true
	}
}

// hasValue reports whether any key of a partial carries an output value
// — the "first correct result" rule: a starved keyblock commits in
// microseconds and must not count as a first result.
func hasValue(values [][]float64) bool {
	for _, v := range values {
		if len(v) > 0 {
			return true
		}
	}
	return false
}
