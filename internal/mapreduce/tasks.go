package mapreduce

import (
	"context"
	"fmt"

	"sidr/internal/coords"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/mapkernel"
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
	out := execReduce(j.in, l, streams)

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
		events = append(events, j.logLocked(mapLost, s))
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

// localRunner is the in-process Runner, the one a job gets when
// Config.Runner is nil: Map tasks run ExecMap on In's readers and keep
// their per-keyblock outputs in memory, so a reference is the output
// itself and nothing is ever lost.
type localRunner struct {
	In     MapInput
	Splits []InputSplit
}

func (r localRunner) RunMap(ctx context.Context, i int) (MapResult, error) {
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

func (localRunner) Fetch(_ context.Context, l int, refs []any) (streams [][]kv.Pair, tally int64, lost []int, err error) {
	// Each Map task's output for this keyblock is an independently sorted
	// stream; nothing is lost, so the keyblock's one Reduce reads it once.
	for _, ref := range refs {
		if o := ref.([]MapOut)[l]; len(o.Pairs) > 0 || o.SourceCount > 0 {
			streams = append(streams, o.Pairs)
			tally += o.SourceCount
		}
	}
	return streams, tally, nil, nil
}

// MapInput bundles everything one task needs to execute outside a full
// job. The distributed runtime (internal/cluster) uses it to run single
// Map tasks on remote worker processes through exactly the task body —
// accumulation, pre-filtering, the seal — the in-process engine uses (the
// Reduce body, execReduce, is the job loop's in both), so a clustered
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
	// rejects before they are shipped, and a median's or percentile's
	// finish every key no other Map task emits (ops.Finisher). A Map task
	// folds every key into one pair whatever the operator, so this is all
	// the combiner decides.
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
type MapOut = mapkernel.Out

// ExecMap runs one Map task standalone on the Map kernel: read the
// split's live region in row batches, fold every run of source points
// that shares a K' key into the split's dense tile, and return the
// per-keyblock outputs — one pair per key — with their source-count
// annotations. The returned slice is indexed by keyblock. The second
// return value is the number of source records read.
func ExecMap(in MapInput, split InputSplit) ([]MapOut, int64, error) {
	return execMap(in, split, nil)
}

// execMap is ExecMap with the kernel's scratch s, or a pooled one when s
// is nil. A join split reads its side's input (join.Plan.MapTask); a
// single-input one routes through the partitioner, and with the combiner
// on a filter keeps only its predicate's survivors, selected run by run
// as the scan folds, and a holistic operator that has a finisher ships
// each split-local key's one output instead of its samples.
func execMap(in MapInput, split InputSplit, s *mapkernel.Scratch) ([]MapOut, int64, error) {
	if jp := in.Join; jp != nil {
		side, reader, missing := jp.Side(split.ID), in.Reader, errNoReader
		if side == 1 {
			reader, missing = in.Reader2, errNoReader2
		}
		if reader == nil {
			return nil, 0, missing
		}
		return mapkernel.Exec(jp.MapTask(side, reader, split.Slab, in.Ctx), s)
	}
	q := in.Query
	var keep func(dst, run []float64) []float64
	var finish func(samples []float64) float64
	if in.Combine {
		keep, _ = ops.Selector(in.Op, q.Params()...)
		finish, _ = ops.Finisher(in.Op, q.Params()...)
	}
	return mapkernel.Exec(mapkernel.Task{
		Reader:     in.Reader,
		Split:      split.Slab,
		Input:      q.Input,
		Extraction: q.Extraction,
		Space:      in.Space,
		Route:      mapkernel.Router{Part: in.Part},
		Stats:      in.Op.Stats(),
		Samples:    in.Op.NeedsSamples(),
		Keep:       keep,
		Survivors:  keep != nil,
		Finish:     finish,
		Ctx:        in.Ctx,
	}, s)
}

// execReduce is the body of Reduce task l once its shuffle is complete
// and validated. streams must be in ascending split order: stream-index
// tie-breaks make the fold order-sensitive. Map outputs arrive as sorted
// streams, so the Reduce-side merge (§2.3) is a walk (kv.EachKey) that
// hands over each key's folded value in key order, with no re-sort and
// no merged slice. A join keyblock pairs the two sides per tile
// (join.Reduce); every other query applies its operator per key, to a
// key one pair holds where it lies: the streams are the task's own
// (taskRunner.Fetch). Every engine reduces through this one function.
func execReduce(in MapInput, l int, streams [][]kv.Pair) ReduceOutput {
	if in.Join != nil {
		keys, values := join.Reduce(in.Join, l, streams...)
		return ReduceOutput{Keyblock: l, Keys: keys, Values: values}
	}
	n := kv.KeyBound(streams)
	out := ReduceOutput{Keyblock: l, Keys: make([]coords.Coord, 0, n), Values: make([][]float64, 0, n)}
	isFilter := in.Op.Kind() == ops.Filter
	params := in.Query.Params()
	kv.EachKey(streams, func(key coords.Coord, v kv.Value) {
		vals := in.Op.Apply(v, params...)
		if isFilter && len(vals) == 0 {
			// Predicated operators omit keys with no surviving samples.
			// This makes index-pruned and unpruned plans byte-identical
			// by construction: a key fed only by pruned splits (which
			// provably contribute no survivors) simply never appears.
			return
		}
		out.Keys = append(out.Keys, key)
		out.Values = append(out.Values, vals)
	})
	return out
}
