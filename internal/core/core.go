// Package core implements the SIDR planner — the paper's primary
// contribution assembled from the substrate packages. Given a structural
// query, an execution engine (Hadoop, SciHadoop, or SIDR) and a reducer
// count, the planner derives everything SIDR needs before a single task
// runs: the input splits, the intermediate keyspace K'^T, the
// partitioner, the keyblocks, and the Map↔Reduce dependency graph.
//
// A Plan executes through the one job loop — RunLocal in process,
// JobConfig with a Runner on a cluster — with the barrier mode, shuffle
// pattern, kv-count validation and Map order the chosen engine implies.
// (The paper-scale testbed model, internal/simcluster, is one more Runner
// under that loop; only internal/experiments links it.)
package core

import (
	"fmt"
	"sort"
	"strings"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/join"
	"sidr/internal/mapreduce"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// Engine selects the execution semantics being compared in the paper.
type Engine int

const (
	// EngineHadoop models stock Hadoop: byte-oriented splits (slow,
	// poorly localised Map tasks), modulo partitioning, global barrier,
	// all-to-all shuffle.
	EngineHadoop Engine = iota
	// EngineSciHadoop models SciHadoop: logical-coordinate splits with
	// good locality, but stock partitioning, barrier and shuffle.
	EngineSciHadoop
	// EngineSIDR models SIDR: SciHadoop's input handling plus
	// partition+, the dependency barrier, dependency-only shuffle and
	// reduce-first scheduling.
	EngineSIDR
)

// ParseEngine maps a wire engine name ("hadoop", "scihadoop", "sidr" or
// empty for the default) to an Engine — the inverse of the lower-cased
// String, shared by the daemon's JSON surface and the cluster protocol
// so coordinator and workers derive identical plans from the same text.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "", "sidr":
		return EngineSIDR, nil
	case "hadoop":
		return EngineHadoop, nil
	case "scihadoop":
		return EngineSciHadoop, nil
	default:
		return 0, fmt.Errorf("core: unknown engine %q", s)
	}
}

// String names the engine the way the paper's figures label them.
func (e Engine) String() string {
	switch e {
	case EngineHadoop:
		return "Hadoop"
	case EngineSciHadoop:
		return "SciHadoop"
	case EngineSIDR:
		return "SIDR"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// MapCostFactor returns the Map-phase slowdown relative to SciHadoop.
// Stock Hadoop's byte-oriented splits force whole-file scans and poor
// locality; the factor is calibrated to the ~2.4× Map-phase gap between
// the Hadoop and SciHadoop curves of Figure 9.
func (e Engine) MapCostFactor() float64 {
	if e == EngineHadoop {
		return 2.4
	}
	return 1.0
}

// RequestDefaults is the one normaliser of a request's plan parameters:
// it turns (query, requested reducers, requested split points) — zero
// meaning "not given" — into the effective pair every engine plans with.
// The default is 4 reducers and the input split into ~8 pieces; a join
// splits both sides at the granularity of its larger one. The facade,
// the daemon's result-cache key, its cluster path, the registry's
// listed split counts and pipelines all call it, so a request spelled
// with or without its defaults is the same request everywhere.
func RequestDefaults(q *query.Query, reducers int, splitPoints int64) (int, int64) {
	if reducers <= 0 {
		reducers = 4
	}
	if splitPoints <= 0 {
		n := q.Input.Size()
		if q.Join {
			n = max(n, q.Input2.Size())
		}
		splitPoints = n/8 + 1
	}
	return reducers, splitPoints
}

// bytesPerPoint is the element size the default split size assumes:
// every dataset stores float64 values.
const bytesPerPoint = 8

// Options tunes plan construction.
type Options struct {
	// Reducers is the Reduce task count (required, >= 1).
	Reducers int
	// SplitPoints is the target number of source points per input split;
	// <= 0 derives it from a 128 MB block of 8-byte values.
	SplitPoints int64
	// Splits, when non-nil, is the explicit input-split list of a
	// single-input plan, used verbatim instead of generating splits from
	// SplitPoints (the paper-scale experiments fix the split count and
	// attach their own block placements).
	Splits []mapreduce.InputSplit
	// MaxSkew bounds partition+ keyblock skew in K' keys; <= 0 uses
	// partition.DefaultMaxSkew.
	MaxSkew int64
	// KeyEncoding overrides the modulo partitioner's key encoding for
	// Hadoop/SciHadoop plans; nil uses the benign tile-index encoding.
	// Supplying partition.CornerInKEncoding reproduces the §4.3 skew
	// pathology.
	KeyEncoding partition.KeyEncoding
	// Priority optionally orders SIDR keyblock scheduling
	// (computational steering, §3.4); nil means keyblock order.
	Priority []int
	// Index, when set, enables structural pruning: for value-predicated
	// operators, splits whose indexed [min, max] block ranges cannot
	// satisfy the predicate are dropped BEFORE the dependency graph is
	// derived, so every keyblock's I_ℓ and expected kv-count reflect
	// only contributing splits. The pruned plan's output is identical
	// to the unpruned plan's by construction (the index is a
	// conservative superset summary). Ignored when the index does not
	// cover the query input or the operator admits no pruning.
	Index *sidx.VarIndex
	// KeepSplits, when non-nil, restricts the plan to these indices of
	// the unpruned split generation order — the kept list a coordinator
	// computed from its index, shipped to workers (which hold no index)
	// so every party derives the identical pruned plan. Takes
	// precedence over Index.
	KeepSplits []int

	// JoinSamplerA/B, when both set for a join query, let the planner
	// sample per-keyblock expected load from the data and re-tile hot
	// keyblocks. Nil skips sampling (base partition+ layout).
	JoinSamplerA coords.RecordReader
	JoinSamplerB coords.RecordReader
	// Retile, when set for a join query, rebuilds the recorded keyblock
	// layout instead of sampling — how clustered workers derive the exact
	// plan the coordinator shipped. Takes precedence over the samplers.
	Retile *join.Retile
	// NoJoinRetile keeps the base partition+ layout for a join even when
	// samplers are supplied (loads are still sampled and recorded) — the
	// naive baseline the bench compares against.
	NoJoinRetile bool
}

// Plan is a fully derived execution plan.
type Plan struct {
	Query    *query.Query
	Engine   Engine
	Reducers int
	// SplitPoints (as resolved) and MaxSkew are the scalars the plan was
	// derived with: with KeptSplits and Join.Retiling(), all a cluster
	// worker needs to derive the identical plan (cluster.planTuple).
	SplitPoints int64
	MaxSkew     int64

	// Splits are the Map-task work units.
	Splits []mapreduce.InputSplit
	// Space is the intermediate keyspace K'^T.
	Space coords.Slab
	// Part assigns K' keys to keyblocks.
	Part partition.Partitioner
	// Graph is the Map↔Reduce dependency relation (I_ℓ inverted from
	// split contributions) with expected source counts.
	Graph *depgraph.Graph
	// Keyblocks holds partition+'s contiguous keyblocks (SIDR only; nil
	// for modulo engines).
	Keyblocks []partition.Keyblock
	// Priority is the keyblock scheduling order (SIDR only).
	Priority []int
	// KeptSplits maps Splits back to the unpruned generation order when
	// structural pruning applied (KeptSplits[i] is Splits[i]'s original
	// index); nil for unpruned plans.
	KeptSplits []int
	// PrunedSplits counts the splits the structural index dropped.
	PrunedSplits int
	// Join is the resolved join plan for two-input queries: Splits is then
	// the combined two-sided list (side A first) and Part/Keyblocks come
	// from the join's (possibly re-tiled) keyblock layout. Nil for
	// single-input queries.
	Join *join.Plan
}

// NewPlan derives a plan for the query under the given engine.
func NewPlan(q *query.Query, engine Engine, opts Options) (*Plan, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query")
	}
	if err := q.Validate(nil); err != nil {
		return nil, err
	}
	if opts.Reducers < 1 {
		return nil, fmt.Errorf("core: need at least one reducer, got %d", opts.Reducers)
	}
	splitPoints := opts.SplitPoints
	if splitPoints <= 0 {
		splitPoints = (128 << 20) / bytesPerPoint
	}
	if q.Join {
		return newJoinPlan(q, engine, opts, splitPoints)
	}
	splits := opts.Splits
	if splits == nil {
		var err error
		splits, err = mapreduce.GenerateSplits(q.Input, tileSplitPoints(q.Input, q.Extraction, splitPoints), nil, "", bytesPerPoint)
		if err != nil {
			return nil, err
		}
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		return nil, err
	}

	p := &Plan{Query: q, Engine: engine, Reducers: opts.Reducers, SplitPoints: splitPoints, MaxSkew: opts.MaxSkew, Splits: splits, Space: space}

	// Structural pruning happens here — after split generation, before
	// the dependency graph — so I_ℓ and the kv-count barrier are derived
	// from contributing splits only.
	keep := opts.KeepSplits
	if keep == nil && opts.Index != nil {
		keep, _ = pruneKeepList(q, mapreduce.Slabs(splits), opts.Index)
	}
	if keep != nil {
		kept := make([]mapreduce.InputSplit, 0, len(keep))
		orig := make([]int, 0, len(keep))
		for _, i := range keep {
			if i < 0 || i >= len(splits) {
				return nil, fmt.Errorf("core: kept split index %d out of range [0,%d)", i, len(splits))
			}
			kept = append(kept, splits[i])
			orig = append(orig, i)
		}
		p.PrunedSplits = len(splits) - len(kept)
		p.Splits, p.KeptSplits = kept, orig
	}
	switch engine {
	case EngineSIDR:
		pp, err := partition.NewPartitionPlus(space, opts.Reducers, opts.MaxSkew, p.liveRows())
		if err != nil {
			return nil, err
		}
		p.Part = pp
		p.Keyblocks = pp.Blocks
	case EngineHadoop, EngineSciHadoop:
		enc := opts.KeyEncoding
		if enc == nil {
			enc = partition.TileIndexEncoding{Space: space}
		}
		m, err := partition.NewModulo(opts.Reducers, enc)
		if err != nil {
			return nil, err
		}
		p.Part = m
	default:
		return nil, fmt.Errorf("core: unknown engine %v", engine)
	}

	p.Graph, err = depgraph.Build(q, mapreduce.Slabs(p.Splits), p.Part)
	if err != nil {
		return nil, err
	}
	if engine == EngineSIDR {
		if opts.Priority != nil {
			if len(opts.Priority) != opts.Reducers {
				return nil, fmt.Errorf("core: priority has %d entries for %d reducers", len(opts.Priority), opts.Reducers)
			}
			p.Priority = append([]int(nil), opts.Priority...)
		}
	}
	return p, nil
}

// tileSplitPoints is the split target the planner hands
// mapreduce.GenerateSplits for an input tiled by e: target rounded to
// leading-dimension bands that are a whole number of e's leading stride,
// the nearest such number and never less than one. Cut from a corner on
// the tile grid, such bands hold every tile whole, so every key is
// split-local: one Map task emits it, and for median or percentile that
// task ships it finished. The target stands in two cases: when one
// stride is more than twice the band it asks for (tall tiles), so the
// split count does not collapse; and when the input's leading corner is
// off the grid, where bands cut from the corner straddle tiles whatever
// their height. Coordinator and workers derive the same bands from the
// same target.
func tileSplitPoints(input coords.Slab, e coords.Extraction, target int64) int64 {
	row := input.Size() / input.Shape[0]
	band := max(target/row, 1)
	stride := e.EffectiveStride()[0]
	aligned := max((band+stride/2)/stride, 1) * stride
	if aligned > 2*band || input.Corner[0]%stride != 0 {
		return target
	}
	return aligned * row
}

// liveRows marks the rows of K'^T's leading dimension that a pruned
// plan's kept splits can reach — the rows of every kept split's tile
// range — so partition+ balances the keys the job can produce instead of
// all of K'^T. It returns nil (every row live) for an unpruned plan and
// for a fully pruned one, which keeps their layout uniform. Workers
// rebuild the plan from the same kept list, so their mask is the
// coordinator's without shipping it.
func (p *Plan) liveRows() []bool {
	if len(p.KeptSplits) == 0 {
		return nil
	}
	live := make([]bool, p.Space.Shape[0])
	for _, s := range p.Splits {
		in, ok := s.Slab.Intersect(p.Query.Input)
		if !ok {
			continue
		}
		box := p.Query.Extraction.KeyBox(in, p.Space)
		for row := box.Corner[0]; row < box.Corner[0]+box.Shape[0]; row++ {
			live[row-p.Space.Corner[0]] = true
		}
	}
	return live
}

// newJoinPlan derives a plan for a two-input join query. Both sides'
// splits are generated with the same geometry rules and concatenated
// into one combined index space (side A first), so dispatch, shuffle and
// spill addressing work unchanged; the keyblock layout comes from the
// join planner — sampled and re-tiled when samplers are supplied,
// rebuilt verbatim when a recorded Retile is (the clustered-worker
// path). Structural index pruning does not apply to joins.
func newJoinPlan(q *query.Query, engine Engine, opts Options, splitPoints int64) (*Plan, error) {
	splitsA, err := mapreduce.GenerateSplits(q.Input, tileSplitPoints(q.Input, q.Extraction, splitPoints), nil, "", bytesPerPoint)
	if err != nil {
		return nil, fmt.Errorf("core: side A splits: %w", err)
	}
	splitsB, err := mapreduce.GenerateSplits(q.Input2, tileSplitPoints(q.Input2, q.Extraction2, splitPoints), nil, "", bytesPerPoint)
	if err != nil {
		return nil, fmt.Errorf("core: side B splits: %w", err)
	}
	slabsA, slabsB := mapreduce.Slabs(splitsA), mapreduce.Slabs(splitsB)

	var jp *join.Plan
	if opts.Retile != nil {
		jp, err = join.Rebuild(q, len(splitsA), *opts.Retile)
	} else {
		jp, err = join.Build(q, join.Options{
			Reducers: opts.Reducers,
			MaxSkew:  opts.MaxSkew,
			NoRetile: opts.NoJoinRetile,
		}, opts.JoinSamplerA, opts.JoinSamplerB, slabsA, slabsB)
	}
	if err != nil {
		return nil, err
	}
	graph, err := join.BuildGraph(jp, slabsA, slabsB)
	if err != nil {
		return nil, err
	}

	splits := make([]mapreduce.InputSplit, 0, len(splitsA)+len(splitsB))
	splits = append(splits, splitsA...)
	for _, s := range splitsB {
		s.ID += len(splitsA)
		splits = append(splits, s)
	}
	p := &Plan{
		Query:       q,
		Engine:      engine,
		Reducers:    opts.Reducers,
		SplitPoints: splitPoints,
		MaxSkew:     opts.MaxSkew,
		Splits:      splits,
		Space:       jp.Space,
		Part:        jp.Partitioner(),
		Graph:       graph,
		Keyblocks:   jp.Keyblocks(),
		Join:        jp,
	}
	if engine == EngineSIDR && opts.Priority != nil {
		if len(opts.Priority) != jp.NumKeyblocks() {
			return nil, fmt.Errorf("core: priority has %d entries for %d keyblocks", len(opts.Priority), jp.NumKeyblocks())
		}
		p.Priority = append([]int(nil), opts.Priority...)
	}
	return p, nil
}

// pruneKeepList computes the kept-split indices for a query whose
// operator admits index pruning; ok is false (keep nil) when no pruning
// applies, which callers must treat as "run unpruned".
func pruneKeepList(q *query.Query, slabs []coords.Slab, vi *sidx.VarIndex) ([]int, bool) {
	if !vi.Covers(q.Input) || vi.Variable != "*" && vi.Variable != q.Variable {
		return nil, false
	}
	op, err := q.Op()
	if err != nil {
		return nil, false
	}
	pred, ok := ops.PrunePredicate(op, q.Params()...)
	if !ok {
		return nil, false
	}
	return vi.PruneSplits(slabs, pred), true
}

// PruneSplits computes the index-pruned keep list for a query without
// deriving a full plan: the same split geometry NewPlan generates,
// filtered by the operator's conservative block predicate. No program
// path calls it any more — the daemon reads a clustered job's kept list
// off the plan it runs (Plan.KeptSplits) — and it stays only because
// bench/replay.go compiles against it.
// pruned is false when the operator or index admits no pruning (keep is
// nil — run unpruned); total is the unpruned split count.
func PruneSplits(q *query.Query, splitPoints int64, vi *sidx.VarIndex) (keep []int, total int, pruned bool, err error) {
	if vi == nil {
		return nil, 0, false, nil
	}
	if splitPoints <= 0 {
		return nil, 0, false, fmt.Errorf("core: PruneSplits needs explicit split points")
	}
	splits, err := mapreduce.GenerateSplits(q.Input, tileSplitPoints(q.Input, q.Extraction, splitPoints), nil, "", bytesPerPoint)
	if err != nil {
		return nil, 0, false, err
	}
	keep, ok := pruneKeepList(q, mapreduce.Slabs(splits), vi)
	if !ok {
		return nil, len(splits), false, nil
	}
	return keep, len(splits), true, nil
}

// KeyblockSlab returns the rectangular K' extent of keyblock l for dense
// output writing; ok is false when the keyblock is not rectangular or the
// plan is not SIDR.
func (p *Plan) KeyblockSlab(l int) (coords.Slab, bool) {
	if p.Keyblocks == nil || l < 0 || l >= len(p.Keyblocks) {
		return coords.Slab{}, false
	}
	kb := p.Keyblocks[l]
	return kb.Slab, kb.Rect && kb.Size() > 0
}

// RunLocal executes a single-input plan on the in-process engine; see
// RunLocalJoin.
func (p *Plan) RunLocal(reader coords.RecordReader, tweak func(*mapreduce.Config)) (*mapreduce.Result, error) {
	return p.RunLocalJoin(reader, nil, tweak)
}

// RunLocalJoin executes the plan on the in-process engine, one reader per
// input (readerB is nil for single-input plans); see JobConfig for what
// the engine choice wires.
func (p *Plan) RunLocalJoin(readerA, readerB coords.RecordReader, tweak func(*mapreduce.Config)) (*mapreduce.Result, error) {
	cfg := p.JobConfig(readerA, readerB)
	if tweak != nil {
		tweak(&cfg)
	}
	return mapreduce.Run(cfg)
}

// JobConfig is the plan as a job for the one job loop, wherever its tasks
// run: in process on the given readers, or — with the caller setting
// Config.Runner and no readers — on a cluster. Every engine's job carries
// the plan's graph, so every Reduce passes the §3.2.1 kv-count gate. For
// SIDR plans it enables the dependency barrier, dependency-only shuffle,
// dependency-driven Map order and keyblock-priority Reduce order;
// Hadoop/SciHadoop plans run with the global barrier and all-to-all
// shuffle.
func (p *Plan) JobConfig(readerA, readerB coords.RecordReader) mapreduce.Config {
	cfg := mapreduce.Config{
		Query:   p.Query,
		Splits:  p.Splits,
		Reader:  readerA,
		Reader2: readerB,
		Join:    p.Join,
		Part:    p.Part,
		Graph:   p.Graph,
	}
	if p.Engine == EngineSIDR {
		cfg.Barrier = mapreduce.DependencyBarrier
		cfg.MapOrder = p.Graph.MapOrder(p.Priority)
		cfg.ReduceOrder = p.Priority // nil keeps keyblock order
	}
	return cfg
}

// TaskInput binds the plan to its readers as the input of the standalone
// task body mapreduce.ExecMap — what a cluster worker runs outside a full
// in-process job (and what a mapreduce.LocalRunner is built from).
func (p *Plan) TaskInput(readerA, readerB coords.RecordReader) (mapreduce.MapInput, error) {
	in := mapreduce.MapInput{
		Query:   p.Query,
		Space:   p.Space,
		Part:    p.Part,
		Reader:  readerA,
		Reader2: readerB,
		Join:    p.Join,
		Combine: true,
	}
	if p.Join == nil {
		var err error
		if in.Op, err = p.Query.Op(); err != nil {
			return mapreduce.MapInput{}, err
		}
	}
	return in, nil
}

// Loads returns the plan's per-keyblock expected intermediate load:
// sampled estimates for join plans, geometric expected counts otherwise.
// The slice is the caller's.
func (p *Plan) Loads() []int64 {
	if p.Join != nil {
		return append([]int64(nil), p.Join.EstLoads...)
	}
	return append([]int64(nil), p.Graph.ExpectedCount...)
}

// Assemble flattens the per-keyblock Reduce outputs of a run of this plan
// into the final result rows, sorted row-major by key. A join plan folds
// its share units' partial moment rows on the way (join.Assemble). Both
// engines assemble through this one function, so their results are
// byte-identical by construction. The returned keys are copies.
func (p *Plan) Assemble(outputs []mapreduce.ReduceOutput) (keys [][]int64, values [][]float64, err error) {
	n := 0
	for _, out := range outputs {
		n += len(out.Keys)
	}
	rows := make([]join.Row, 0, n)
	for _, out := range outputs {
		for i, k := range out.Keys {
			rows = append(rows, join.Row{KB: out.Keyblock, Key: k, Values: out.Values[i]})
		}
	}
	if p.Join != nil {
		if rows, err = join.Assemble(p.Join, rows); err != nil {
			return nil, nil, err
		}
	} else {
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key.Less(rows[j].Key) })
	}
	keys, values = make([][]int64, len(rows)), make([][]float64, len(rows))
	n = 0
	for _, r := range rows {
		n += len(r.Key)
	}
	// One backing array for the result's keys, each handed out clipped to
	// its own length so an append to one cannot reach the next.
	arena := make([]int64, 0, n)
	for i, r := range rows {
		arena = append(arena, r.Key...)
		keys[i], values[i] = arena[len(arena)-len(r.Key):len(arena):len(arena)], r.Values
	}
	return keys, values, nil
}
