package mapreduce

import (
	"context"
	"fmt"
	"sync"

	"sidr/internal/coords"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// runMap executes Map task i through the Runner and publishes its
// completion to the task graph: every uncommitted dependent Reduce task's
// counter drops, and those reaching zero are enqueued.
func (j *Job) runMap(i int) {
	j.emit(MapStart, i)
	res, err := j.runner.RunMap(j.ctx, i)
	if err != nil {
		j.fail(err)
		return
	}
	j.emit(MapEnd, i)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return
	}
	m := &j.maps[i]
	m.done, m.ref = true, res.Ref
	j.counters.MapRecordsIn += res.Records
	j.counters.MapPairsOut += res.Pairs
	j.counters.ShuffleBytes += res.Bytes
	for _, l := range j.dependents(i) {
		if j.committed[l] {
			continue
		}
		j.remaining[l]--
		if j.remaining[l] == 0 {
			j.enqueueReduceLocked(l)
		}
	}
}

// runReduce executes Reduce task l. Its dependency barrier was satisfied
// when the task graph enqueued it — readiness is computed from I_ℓ
// counters, never awaited — so the task fetches its intermediate data
// through the Runner, validates the kv-count annotation tally, applies
// the operator per key, and commits the output. A fetch that reports Map
// outputs lost re-arms instead (rearm); the task graph runs the Reduce
// again when they are back.
func (j *Job) runReduce(l int) {
	j.mu.Lock()
	if j.failed != nil || j.committed[l] || j.remaining[l] != 0 {
		// Stale: the job is over, a sibling run of this task committed, or
		// a dependency was invalidated while this run sat in the queue —
		// its re-execution enqueues the keyblock afresh.
		j.mu.Unlock()
		return
	}
	// The run works from a snapshot of its dependencies' outputs; gens
	// names the generation of each, so the run's verdicts — a loss report,
	// a commit — only ever apply to what it actually consumed.
	splits := j.deps(l)
	refs, gens := make([]any, len(splits)), make([]int, len(splits))
	for k, s := range splits {
		refs[k], gens[k] = j.maps[s].ref, j.maps[s].gen
	}
	j.counters.Connections += int64(len(splits))
	start := j.logLocked(ReduceStart, l)
	j.mu.Unlock()
	j.deliver(start)

	streams, tally, lost, err := j.runner.Fetch(j.ctx, l, refs)
	if len(lost) > 0 {
		j.rearm(splits, gens, lost, err)
		return
	}
	// The §3.2.1 integrity gate: the annotation tally must equal the
	// planner's expected source count or the keyblock never commits.
	if err == nil && j.cfg.Graph != nil {
		if want := j.cfg.Graph.ExpectedCount[l]; tally != want {
			err = fmt.Errorf("%w: keyblock %d received %d source pairs, expected %d", ErrCountMismatch, l, tally, want)
		}
	}
	if err != nil {
		j.fail(err)
		return
	}
	out := ExecReduce(j.in, l, streams)

	j.mu.Lock()
	current := j.failed == nil && !j.committed[l]
	for k, s := range splits {
		// A sibling's loss report may have invalidated an output this run
		// consumed; the fresh run its re-execution enqueues commits instead.
		current = current && j.maps[s].gen == gens[k]
	}
	if !current {
		j.mu.Unlock()
		return
	}
	j.committed[l] = true
	j.nCommitted++
	j.results[l] = out
	for _, vals := range out.Values {
		j.counters.OutputValues += int64(len(vals))
	}
	j.mu.Unlock()
	if j.cfg.OnReduceOutput != nil {
		j.cfg.OnReduceOutput(out)
	}
	j.emit(ReduceEnd, l)
}

// rearm applies a Reduce run's loss report. Each reported split whose
// output is still the generation the run was handed is invalidated —
// once: a second report of the same generation, from a sibling that
// fetched concurrently, finds it superseded and changes nothing — every
// uncommitted keyblock depending on it gets its counter back and loses
// its enqueued mark (its queued or running Reduce is stale now), and the
// Map task re-executes under the attempt budget. The reporting Reduce is
// among those dependents, so it runs again exactly when its counter next
// reaches zero. Committed keyblocks keep their outputs: any generation's
// output was valid data.
func (j *Job) rearm(splits, gens, lost []int, cause error) {
	if cause == nil {
		cause = errOutputLost
	}
	isLost := make(map[int]bool, len(lost))
	for _, s := range lost {
		isLost[s] = true
	}
	var events []Event
	j.mu.Lock()
	for k, s := range splits {
		m := &j.maps[s]
		if j.failed != nil || !isLost[s] || m.gen != gens[k] {
			continue
		}
		m.gen++
		m.done, m.ref, m.cause = false, nil, cause
		j.counters.RecomputedMaps++
		events = append(events, j.logLocked(MapLost, s))
		for _, kb := range j.dependents(s) {
			if !j.committed[kb] {
				j.remaining[kb]++
				j.enqueued[kb] = false
			}
		}
		j.submitMapLocked(s)
	}
	j.mu.Unlock()
	j.deliver(events...)
}

// LocalRunner is the in-process Runner, the one a job gets when
// Config.Runner is nil: Map tasks run ExecMap on In's readers and keep
// their per-keyblock outputs in memory, so a reference is the output
// itself and nothing is ever lost. (Exported so that a Runner which does
// lose things — a test's — can wrap it.)
type LocalRunner struct {
	In     MapInput
	Splits []InputSplit
}

func (r LocalRunner) RunMap(ctx context.Context, i int) (MapResult, error) {
	in := r.In
	in.Ctx = ctx
	outs, records, err := ExecMap(in, r.Splits[i])
	if err != nil {
		return MapResult{}, fmt.Errorf("mapreduce: map task %d: %w", i, err)
	}
	res := MapResult{Ref: outs, Records: records}
	for _, o := range outs {
		res.Pairs += int64(len(o.Pairs))
		for _, p := range o.Pairs {
			res.Bytes += p.Value.ApproxBytes()
		}
	}
	return res, nil
}

func (LocalRunner) Fetch(_ context.Context, l int, refs []any) (streams [][]kv.Pair, tally int64, lost []int, err error) {
	// Each Map task's output for this keyblock is an independently sorted
	// stream; collect them for the k-way merge.
	for _, ref := range refs {
		if o := ref.([]MapOut)[l]; len(o.Pairs) > 0 || o.SourceCount > 0 {
			streams = append(streams, o.Pairs)
			tally += o.SourceCount
		}
	}
	return streams, tally, nil, nil
}

// mapScratch is reusable per-Map-task state: the batch buffer, the dense
// accumulation tile, the per-cell point counts, the seal's per-cell
// keyblock memo and a filter's survivor arena. Pooled process-wide so
// repeated Map tasks stop paying per-split allocation churn.
type mapScratch struct {
	vals []float64 // one batch of source values
	// tile holds one accumulator per K' key of the split's box, indexed
	// by the key's row-major offset inside the box. Every cell is zero
	// between tasks: the seal zeroes every cell, published or not,
	// because a cell's Samples is a window of the task's sample arena,
	// which escapes into the published pairs.
	tile   []kv.Value
	points []int64 // source points per cell (sizes the sample windows)
	kbOf   []int32 // keyblock of each live cell, in cell order
	// survivors backs a pre-filtering task's sample windows. The seal
	// copies the survivors out, so unlike the arena of a task that ships
	// every sample it never escapes and serves task after task.
	survivors []float64
}

var scratchPool = sync.Pool{New: func() any { return &mapScratch{} }}

// MapInput bundles everything one task needs to execute outside a full
// job. The distributed runtime (internal/cluster) uses it to run single
// Map tasks on remote worker processes through exactly the task body —
// accumulation, pre-filtering, the seal — the in-process engine uses (the
// Reduce body, ExecReduce, is the job loop's in both), so a clustered
// job's data is bit-identical to a local run's.
type MapInput struct {
	Query  *query.Query
	Op     ops.Operator // nil for joins, which carry theirs in Join
	Space  coords.Slab  // K'^T, the intermediate keyspace
	Part   partition.Partitioner
	Reader coords.RecordReader

	// Join, when set, makes the task bodies those of a structural join:
	// a split's side follows from its ID in the combined split list,
	// Reader serves side A and Reader2 side B, and Reduce pairs the two
	// sides per tile (internal/join). Combine does not apply to join Map
	// tasks.
	Join    *join.Plan
	Reader2 coords.RecordReader

	// Combine makes a filter's Map tasks drop the samples its predicate
	// rejects before they are shipped. A Map task folds every key into one
	// pair whatever the operator, so this is all the combiner decides.
	Combine bool
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

// ExecMap runs one Map task standalone: read the split's live region in
// row batches, fold every run of source points that shares a K' key into
// the split's dense tile, and return the per-keyblock outputs — one pair
// per key — with their source-count annotations. The returned slice is
// indexed by keyblock. The second return value is the number of source
// records read.
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
	scratch := scratchPool.Get().(*mapScratch)
	outs, records, err := execMap(in, split, scratch)
	if err != nil {
		return nil, 0, err // the tile may hold live cells: drop the scratch
	}
	scratchPool.Put(scratch)
	return outs, records, nil
}

// execMap is the single-input Map kernel. The extraction shape makes the
// split's image in K' a box known up front (KeyBox), so accumulation is a
// dense tile indexed by key offset, and the seal is a linear walk that
// meets the keys already in row-major order — no hash map, no sort.
//
// Per key the observations fold in row-major source order into one
// accumulator per statistic, so outputs are bit-identical to folding
// point by point, and a key's samples stay in source order.
func execMap(in MapInput, split InputSplit, scratch *mapScratch) ([]MapOut, int64, error) {
	q := in.Query
	outs := make([]MapOut, in.Part.NumKeyblocks())
	live, ok := split.Slab.Intersect(q.Input)
	if !ok {
		return outs, 0, nil
	}
	box := q.Extraction.KeyBox(live, in.Space)
	walk, err := q.Extraction.Walk(box)
	if err != nil {
		return nil, 0, err
	}
	if cells := box.Size(); int64(cap(scratch.tile)) < cells {
		scratch.tile = make([]kv.Value, cells)
	} else {
		scratch.tile = scratch.tile[:cells]
	}
	tile := scratch.tile
	needSamples := in.Op.NeedsSamples()
	// With the combiner on, a filter keeps only its predicate's survivors:
	// they are selected run by run as the scan folds, and Count alone
	// tracks the source points.
	var keep func(dst, run []float64) []float64
	if in.Combine {
		keep, _ = ops.Selector(in.Op, in.Query.Params()...)
	}
	if needSamples {
		// The geometry says how many points reach each key, so every
		// cell's samples get an exactly sized window of one array per task
		// before the first value is read, and AddRun (or keep) never
		// reallocates.
		var total int64
		scratch.points, total = walk.CellPoints(live, scratch.points)
		var arena []float64
		if keep == nil {
			arena = make([]float64, total)
		} else {
			if int64(cap(scratch.survivors)) < total {
				scratch.survivors = make([]float64, total)
			}
			arena = scratch.survivors
		}
		for c, n := range scratch.points {
			tile[c].Samples = arena[:0:n]
			arena = arena[n:]
		}
	}

	var records int64
	fold := func(cell, _ int64, run []float64) error {
		records += int64(len(run))
		if v := &tile[cell]; keep != nil {
			v.Count += int64(len(run))
			v.Samples = keep(v.Samples, run)
		} else {
			v.AddRun(run, needSamples)
		}
		return nil
	}
	scratch.vals, err = coords.ReadBatches(in.Ctx, in.Reader, live, scratch.vals, func(batch coords.Slab, vals []float64) error {
		return walk.Runs(batch, vals, fold)
	})
	if err == nil {
		err = scratch.seal(in, box, outs, keep != nil)
	}
	if err != nil {
		return nil, 0, err
	}
	return outs, records, nil
}

// seal publishes every live cell of the tile as exactly one pair of its
// keyblock's output, and zeroes every cell. One odometer walk over the
// box meets the keys in row-major order, routes each and sizes every
// output exactly; keys are carved from one backing array. When the cells
// hold a filter's survivors (filtered), each key's are sorted and copied
// out into one array per task, and its statistics fold the sorted
// survivors while Count keeps the source points the tally needs.
func (s *mapScratch) seal(in MapInput, box coords.Slab, outs []MapOut, filtered bool) error {
	tile, rank := s.tile, box.Rank()
	if len(tile) == 0 {
		return nil
	}
	key, err := box.Delinearize(0)
	if err != nil {
		return err
	}
	keys := make([]int64, 0, len(tile)*rank)
	kbOf, counts := s.kbOf[:0], make([]int, len(outs))
	survivors := 0
	for c := range tile {
		if tile[c].Count > 0 {
			kb, err := in.Part.Partition(key)
			if err != nil {
				return err
			}
			kbOf = append(kbOf, int32(kb))
			counts[kb]++
			keys = append(keys, key...)
			survivors += len(tile[c].Samples)
		}
		box.Advance(key)
	}
	s.kbOf = kbOf
	for kb, n := range counts {
		if n > 0 {
			outs[kb].Pairs = make([]kv.Pair, 0, n)
		}
	}
	var kept []float64 // non-nil even when empty: it marks "pre-filtered"
	if filtered {
		kept = make([]float64, survivors)
	}
	for c := range tile {
		v := &tile[c]
		if v.Count > 0 {
			out := &outs[kbOf[0]]
			kbOf = kbOf[1:]
			pair := kv.Pair{Key: keys[:rank:rank], Value: *v}
			keys = keys[rank:]
			if filtered {
				n := len(v.Samples)
				ops.SortSurvivors(v.Samples)
				pair.Value = kv.Value{Samples: kept[:n:n]}
				kept = kept[n:]
				copy(pair.Value.Samples, v.Samples)
				pair.Value.AddRun(pair.Value.Samples, false)
				pair.Value.Count = v.Count
			}
			out.SourceCount += v.Count
			out.Pairs = append(out.Pairs, pair)
		}
		*v = kv.Value{}
	}
	return nil
}

// ExecReduce is the body of Reduce task l once its shuffle is complete
// and validated: the Reduce-side sort/merge (§2.3) — Map outputs arrive
// as sorted streams, so a k-way merge yields the ⟨k', merged-value⟩ list
// without a global re-sort, Hadoop's actual merge structure — then the
// query operator per key, or the join's per-tile pairing of its two
// sides. streams must be in ascending split order (stream-index
// tie-breaks make the merge order-sensitive). The merged values are the
// task's own — each key's samples a window of one array the merge
// allocates — so the operator orders them in place. Every engine reduces
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
