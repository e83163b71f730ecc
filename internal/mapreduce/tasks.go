package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sidr/internal/coords"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// runMap executes Map task i: read the split's live region, map every
// source key into K' via the extraction shape, accumulate per-keyblock
// intermediate pairs (combining when configured), and publish the outputs
// with their source-count annotations. Completion bookkeeping (dependency
// decrements, reduce enqueues) happens in mapFinished after MapEnd.
func (j *job) runMap(i int) error {
	j.emit(Event{Kind: MapStart, Detail: i, At: time.Now()})
	outs, records, err := j.execMap(i)
	if err != nil {
		return err
	}
	var pairsOut int64
	for _, o := range outs {
		pairsOut += int64(len(o.pairs))
	}
	if j.cfg.SpillDir != "" {
		if err := j.spill(i, outs); err != nil {
			return err
		}
	}
	j.mu.Lock()
	j.outputs[i] = outs
	j.counters.MapRecordsIn += records
	j.counters.MapPairsOut += pairsOut
	j.mu.Unlock()
	j.emit(Event{Kind: MapEnd, Detail: i, At: time.Now()})
	return nil
}

// scratchChunk sizes the mapScratch value slab's allocation unit.
const scratchChunk = 512

// mapScratch is reusable per-Map-task accumulation state: the
// per-keyblock accumulator maps (buckets retained across tasks), a bump
// slab for kv.Value cells, and a freelist of pair slices for sealed
// segments that do not escape the task. Pooled process-wide so repeated
// Map tasks stop paying per-split allocation churn.
type mapScratch struct {
	accums   []map[int64]*kv.Value
	segments [][][]kv.Pair
	chunks   [][]kv.Value
	ci, cn   int // bump position: chunk index, offset within chunk
	free     [][]kv.Pair
	kp       coords.Coord // MapKeyInto buffer for the record loop
}

var scratchPool = sync.Pool{New: func() any { return &mapScratch{} }}

// reset prepares the scratch for a task with r keyblocks. Previously
// handed-out slab cells are zeroed: their Samples headers may alias
// arrays that escaped into published pairs, and a zeroed cell starts a
// fresh array on its first Add instead of appending into a shared one.
func (s *mapScratch) reset(r int) {
	for i := 0; i < s.ci && i < len(s.chunks); i++ {
		c := s.chunks[i]
		for k := range c {
			c[k] = kv.Value{}
		}
	}
	if s.ci < len(s.chunks) {
		c := s.chunks[s.ci]
		for k := 0; k < s.cn; k++ {
			c[k] = kv.Value{}
		}
	}
	s.ci, s.cn = 0, 0
	if cap(s.accums) < r {
		s.accums = make([]map[int64]*kv.Value, r)
	} else {
		s.accums = s.accums[:r]
	}
	for i, m := range s.accums {
		if m != nil {
			clear(m)
		} else {
			s.accums[i] = make(map[int64]*kv.Value)
		}
	}
	if cap(s.segments) < r {
		s.segments = make([][][]kv.Pair, r)
	} else {
		s.segments = s.segments[:r]
		for i := range s.segments {
			for k := range s.segments[i] {
				s.segments[i][k] = nil // drop references to published pairs
			}
			s.segments[i] = s.segments[i][:0]
		}
	}
}

// value hands out a zeroed kv.Value cell from the slab.
func (s *mapScratch) value() *kv.Value {
	if s.ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]kv.Value, scratchChunk))
	}
	c := s.chunks[s.ci]
	v := &c[s.cn]
	s.cn++
	if s.cn == len(c) {
		s.ci++
		s.cn = 0
	}
	return v
}

// pairBuf returns an empty pair slice, reusing a recycled segment when
// one with capacity is available.
func (s *mapScratch) pairBuf(n int) []kv.Pair {
	for i := len(s.free) - 1; i >= 0; i-- {
		if cap(s.free[i]) >= n {
			buf := s.free[i][:0]
			s.free = append(s.free[:i], s.free[i+1:]...)
			return buf
		}
	}
	return make([]kv.Pair, 0, n)
}

// recycle returns segment slices that did not escape the task (they were
// merged into a fresh output slice) to the freelist.
func (s *mapScratch) recycle(segs [][]kv.Pair) {
	if len(s.free) >= 16 {
		return
	}
	s.free = append(s.free, segs...)
}

// MapInput bundles everything one task needs to execute outside a full
// job. The distributed runtime (internal/cluster) uses it to run single
// Map tasks on remote worker processes, and Reduce tasks in the
// coordinator, through exactly the task bodies — accumulation,
// combining, sort-buffer sealing, merge, operator application — the
// in-process engine uses, so a clustered job's data is bit-identical to
// a local run's.
type MapInput struct {
	Query  *query.Query
	Op     ops.Operator // nil for joins, which carry theirs in Join
	Space  coords.Slab  // K'^T, the intermediate keyspace
	Part   partition.Partitioner
	Reader RecordReader

	// Join, when set, makes the task bodies those of a structural join:
	// a split's side follows from its ID in the combined split list,
	// Reader serves side A and Reader2 side B, and Reduce pairs the two
	// sides per tile (internal/join). Combine and SortBufferRecords do
	// not apply to join Map tasks.
	Join    *join.Plan
	Reader2 RecordReader

	// Combine enables map-side combining (applied only when lossless for
	// the operator).
	Combine bool
	// SortBufferRecords bounds the map-side accumulation buffer (see
	// Config.SortBufferRecords). Zero means unbounded.
	SortBufferRecords int64
	// Ctx, when set, aborts the record loop when done.
	Ctx context.Context
}

// SpillRank is the coordinate rank of the task's spill keys: the
// keyspace rank, plus a trailing side bit for joins.
func (in MapInput) SpillRank() int {
	if in.Join != nil {
		return in.Join.SpillRank()
	}
	return in.Space.Rank()
}

// MapOut is one keyblock's share of a standalone Map task's output:
// the sorted intermediate pairs plus the §3.2.1 kv-count annotation.
type MapOut = join.MapOut

// execMap is the side-effect-free body of a Map task, shared by normal
// execution and failure-recovery re-execution.
func (j *job) execMap(i int) ([]mapOutput, int64, error) {
	outs, records, err := ExecMap(j.in, j.cfg.Splits[i])
	if err != nil {
		return nil, 0, fmt.Errorf("mapreduce: map task %d: %w", i, err)
	}
	converted := make([]mapOutput, len(outs))
	for l, o := range outs {
		converted[l] = mapOutput{pairs: o.Pairs, sourceCount: o.SourceCount}
	}
	return converted, records, nil
}

// ExecMap runs one Map task standalone: read the split's live region,
// map every source key into K' via the extraction shape, accumulate
// per-keyblock intermediate pairs (combining when configured), and
// return the per-keyblock outputs with their source-count annotations.
// The returned slice is indexed by keyblock. The second return value is
// the number of source records read.
func ExecMap(in MapInput, split InputSplit) ([]MapOut, int64, error) {
	if jp := in.Join; jp != nil {
		side, reader, missing := jp.Side(split.ID), in.Reader, ErrNoReader
		if side == 1 {
			reader, missing = in.Reader2, ErrNoReader2
		}
		if reader == nil {
			return nil, 0, missing
		}
		return join.ExecMap(jp, side, reader, split.Slab, in.Ctx)
	}
	q := in.Query
	live, ok := split.Slab.Intersect(q.Input)
	if !ok {
		return make([]MapOut, in.Part.NumKeyblocks()), 0, nil
	}
	needSamples := in.Op.NeedsSamples()
	combine := in.Combine && ops.CombinerLossless(in.Op)

	r := in.Part.NumKeyblocks()
	outs := make([]MapOut, r)
	// Per-keyblock accumulation keyed by the K' key's row-major offset.
	// When SortBufferRecords bounds the buffer, full buffers are sealed
	// into sorted segments (Hadoop's io.sort.mb spills) and merged
	// map-side after the split is consumed. Maps, value cells and
	// (non-escaping) segment slices come from pooled scratch.
	scratch := scratchPool.Get().(*mapScratch)
	scratch.reset(r)
	defer scratchPool.Put(scratch)
	accums := scratch.accums
	segments := scratch.segments
	var records, buffered, seen int64

	// sealSegment converts one keyblock's accumulated buffer into a
	// sorted pair segment. Single-segment keyblocks publish the segment
	// directly, so seal buffers are only drawn from the freelist when a
	// map-side merge will replace them (multi-segment case) — a direct
	// publish must own fresh memory.
	sealSegment := func(kb int) error {
		m := accums[kb]
		if len(m) == 0 {
			return nil
		}
		var pairs []kv.Pair
		if len(segments[kb]) > 0 || in.SortBufferRecords > 0 {
			pairs = scratch.pairBuf(len(m))
		} else {
			pairs = make([]kv.Pair, 0, len(m))
		}
		for off, val := range m {
			kp, err := in.Space.Delinearize(off)
			if err != nil {
				return err
			}
			out := *val
			if combine && in.Op.Kind() == ops.Filter {
				out = ops.PreFilter(in.Op, out, q.Params()...)
			}
			if !combine && out.Count > 1 && out.Samples != nil {
				// Without a combiner each source pair ships separately;
				// emit one pair per sample to model the uncombined byte
				// volume. Aggregate-only operators still fold (their
				// values are indistinguishable), matching Hadoop jobs
				// that always configure combiners for such operators.
				for _, s := range out.Samples {
					pairs = append(pairs, kv.Pair{Key: kp, Value: kv.NewValue(s, true)})
				}
				continue
			}
			pairs = append(pairs, kv.Pair{Key: kp, Value: out})
		}
		kv.SortPairs(pairs)
		segments[kb] = append(segments[kb], pairs)
		clear(m)
		return nil
	}
	sealAll := func() error {
		for kb := range accums {
			if err := sealSegment(kb); err != nil {
				return err
			}
		}
		buffered = 0
		return nil
	}

	err := in.Reader.ReadSplit(live, func(k coords.Coord, v float64) error {
		// Cancellation check amortised over the record loop so slow
		// readers abort promptly without a per-point atomic.
		if seen&63 == 0 && in.Ctx != nil {
			if err := in.Ctx.Err(); err != nil {
				return err
			}
		}
		seen++
		kp, mapped := q.Extraction.MapKeyInto(k, scratch.kp)
		if kp != nil {
			scratch.kp = kp[:0]
		}
		if !mapped {
			return nil // stride gap
		}
		if !in.Space.Contains(kp) {
			return nil // discarded partial tile (KeepPartial == false semantics)
		}
		records++
		kb, err := in.Part.Partition(kp)
		if err != nil {
			return err
		}
		off, err := in.Space.Linearize(kp)
		if err != nil {
			return err
		}
		m := accums[kb]
		val := m[off]
		if val == nil {
			val = scratch.value()
			m[off] = val
		}
		val.Add(v, needSamples)
		outs[kb].SourceCount++
		buffered++
		if in.SortBufferRecords > 0 && buffered >= in.SortBufferRecords {
			return sealAll()
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if err := sealAll(); err != nil {
		return nil, 0, err
	}

	for kb, segs := range segments {
		switch {
		case len(segs) == 0:
			// No data for this keyblock.
		case len(segs) == 1:
			outs[kb].Pairs = segs[0]
		case combine:
			// Map-side merge folds equal keys across segments — the
			// combiner applied during Hadoop's spill merge. The merged
			// slice is fresh, so the segments return to the freelist.
			outs[kb].Pairs = kv.MergeSorted(segs)
			scratch.recycle(segs)
		default:
			// Without a combiner segments are concatenated and re-sorted
			// so downstream streams stay key-ordered but unfolded.
			all := make([]kv.Pair, 0, totalPairs(segs))
			for _, s := range segs {
				all = append(all, s...)
			}
			kv.SortPairs(all)
			outs[kb].Pairs = all
			scratch.recycle(segs)
		}
	}
	return outs, records, nil
}

func totalPairs(segs [][]kv.Pair) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// runReduce executes Reduce task l. Its dependency barrier was already
// satisfied when the task graph enqueued it — readiness is computed from
// I_ℓ counters, never awaited — so the task fetches and merges its
// intermediate data, validates the kv-count annotation tally, applies
// the operator per key, and commits the output.
func (j *job) runReduce(l int) (ReduceOutput, error) {
	j.emit(Event{Kind: ReduceStart, Detail: l, At: time.Now()})

	out, err := j.execReduce(l)
	if err != nil {
		return ReduceOutput{Keyblock: l}, err
	}

	// Failure injection: the first attempt is discarded and the task
	// re-executed, optionally re-running its dependent Map tasks instead
	// of relying on persisted intermediate data (paper §6 future work).
	j.mu.Lock()
	shouldFail := j.cfg.FailReduceOnce[l]
	if shouldFail {
		delete(j.cfg.FailReduceOnce, l)
	}
	j.mu.Unlock()
	if shouldFail {
		if j.cfg.RecoverByRecompute {
			for _, s := range j.cfg.Graph.KBToSplits[l] {
				outs, _, err := j.execMap(s)
				if err != nil {
					return ReduceOutput{Keyblock: l}, err
				}
				j.mu.Lock()
				j.outputs[s] = outs
				j.counters.RecomputedMaps++
				j.mu.Unlock()
			}
		}
		j.emit(Event{Kind: ReduceRecovered, Detail: l, At: time.Now()})
		out, err = j.execReduce(l)
		if err != nil {
			return ReduceOutput{Keyblock: l}, err
		}
	}

	if j.cfg.OnReduceOutput != nil {
		j.cfg.OnReduceOutput(out)
	}
	j.emit(Event{Kind: ReduceEnd, Detail: l, At: time.Now()})
	return out, nil
}

// execReduce fetches, merges and reduces keyblock l's data.
func (j *job) execReduce(l int) (ReduceOutput, error) {
	if j.cfg.Ctx != nil {
		if err := j.cfg.Ctx.Err(); err != nil {
			return ReduceOutput{Keyblock: l}, err
		}
	}
	// Shuffle: under the dependency barrier only the Map tasks in I_ℓ
	// are contacted; under the global barrier every Map task is (stock
	// Hadoop's all-to-all fetch), which is what Table 3 counts.
	var sources []int
	if j.cfg.Barrier == DependencyBarrier {
		sources = j.cfg.Graph.KBToSplits[l]
	} else {
		sources = make([]int, len(j.cfg.Splits))
		for i := range sources {
			sources[i] = i
		}
	}

	// Each Map task's output for this keyblock is an independently
	// sorted stream; collect them for the k-way merge.
	var streams [][]kv.Pair
	var tally, pairsIn, bytesIn int64
	var spills []string
	j.mu.Lock()
	for _, s := range sources {
		j.counters.Connections++
		o := j.outputs[s]
		if l >= len(o) {
			continue
		}
		if o[l].path != "" {
			spills = append(spills, o[l].path)
			continue
		}
		if len(o[l].pairs) == 0 && o[l].sourceCount == 0 {
			continue
		}
		streams = append(streams, o[l].pairs)
		tally += o[l].sourceCount
		pairsIn += int64(len(o[l].pairs))
		for _, p := range o[l].pairs {
			bytesIn += p.Value.ApproxBytes()
		}
	}
	j.mu.Unlock()
	for _, path := range spills {
		filePairs, src, err := readSpillFile(path)
		if err != nil {
			return ReduceOutput{}, err
		}
		streams = append(streams, filePairs)
		tally += src
		pairsIn += int64(len(filePairs))
		for _, p := range filePairs {
			bytesIn += p.Value.ApproxBytes()
		}
	}
	j.mu.Lock()
	j.counters.ReducePairsIn += pairsIn
	j.counters.ShuffleBytes += bytesIn
	j.mu.Unlock()

	if j.cfg.ValidateCounts {
		want := j.cfg.Graph.ExpectedCount[l]
		if tally != want {
			return ReduceOutput{}, fmt.Errorf("%w: keyblock %d received %d source pairs, expected %d",
				ErrCountMismatch, l, tally, want)
		}
	}

	out := ExecReduce(j.in, l, streams)
	var produced int64
	for _, vals := range out.Values {
		produced += int64(len(vals))
	}
	j.mu.Lock()
	j.counters.OutputValues += produced
	j.mu.Unlock()
	return out, nil
}

// ExecReduce is the body of Reduce task l once its shuffle is complete
// and validated: the Reduce-side sort/merge (§2.3) — Map outputs arrive
// as sorted streams, so a k-way merge yields the ⟨k', merged-value⟩ list
// without a global re-sort, Hadoop's actual merge structure — then the
// query operator per key, or the join's per-tile pairing of its two
// sides. streams must be in ascending split order (stream-index
// tie-breaks make the merge order-sensitive). Every engine reduces
// through this one function.
func ExecReduce(in MapInput, l int, streams [][]kv.Pair) ReduceOutput {
	merged := kv.MergeSorted(streams)
	if in.Join != nil {
		keys, values := join.Reduce(in.Join, l, merged)
		return ReduceOutput{Keyblock: l, Keys: keys, Values: values}
	}
	out := ReduceOutput{Keyblock: l, Keys: make([]coords.Coord, 0, len(merged)), Values: make([][]float64, 0, len(merged))}
	isFilter := in.Op.Kind() == ops.Filter
	params := in.Query.Params()
	for _, p := range merged {
		vals := in.Op.Apply(p.Value, params...)
		if isFilter && len(vals) == 0 {
			// Predicated operators omit keys with no surviving samples.
			// This makes index-pruned and unpruned plans byte-identical
			// by construction: a key fed only by pruned splits (which
			// provably contribute no survivors) simply never appears.
			continue
		}
		out.Keys = append(out.Keys, p.Key)
		out.Values = append(out.Values, vals)
	}
	return out
}
