// Package sidr is the public API of this repository: a from-scratch Go
// implementation of SIDR — Structure-Aware Intelligent Data Routing
// (Buck et al., SC '13) — together with the MapReduce runtime, scientific
// file format, and cluster substrates it builds on.
//
// SIDR exploits the structure of scientific array data to make MapReduce
// communication deterministic for structural queries: it computes, before
// execution, which input splits feed which Reduce tasks, and uses that to
// remove the global Map→Reduce barrier, produce early correct results,
// eliminate intermediate key skew, and write dense contiguous output.
//
// A minimal session:
//
//	ds, _ := sidr.Synthetic([]int64{364, 250, 200}, myTemperatureFn)
//	q, _ := sidr.ParseQuery("avg temp[0,0,0 : 364,250,200] es {7,5,1}")
//	res, _ := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: 4})
//
// The facade accepts plain []int64 coordinates; the internal packages
// (coords, mapreduce, partition, depgraph, simcluster, ...) expose
// the full machinery for advanced use within this module.
package sidr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// Engine selects execution semantics: stock Hadoop, SciHadoop, or SIDR.
type Engine = core.Engine

// Engine values, named as in the paper's figures.
const (
	Hadoop    = core.EngineHadoop
	SciHadoop = core.EngineSciHadoop
	SIDR      = core.EngineSIDR
)

// Dataset is a queryable n-dimensional array: either an ncfile container
// on disk or a synthetic dataset defined by a pure function of the
// coordinate.
type Dataset struct {
	shape    coords.Shape
	variable string
	file     *ncfile.File
	fn       func(coords.Coord) float64
}

// Open opens the named variable of an ncfile container.
func Open(path, variable string) (*Dataset, error) {
	f, err := ncfile.Open(path)
	if err != nil {
		return nil, err
	}
	shape, err := f.Header().VarShape(variable)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Dataset{shape: shape, variable: variable, file: f}, nil
}

// Synthetic wraps a pure coordinate function as a dataset of the given
// shape; nothing is materialised.
func Synthetic(shape []int64, fn func(k []int64) float64) (*Dataset, error) {
	s := coords.NewShape(shape...)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("sidr: nil dataset function")
	}
	return &Dataset{
		shape: s,
		fn:    func(k coords.Coord) float64 { return fn(k) },
	}, nil
}

// Shape returns the dataset's extents.
func (d *Dataset) Shape() []int64 {
	return append([]int64(nil), d.shape...)
}

// Close releases the underlying file, if any.
func (d *Dataset) Close() error {
	if d.file != nil {
		return d.file.Close()
	}
	return nil
}

// Reader returns the dataset's record reader. A synthetic dataset runs
// caller code per point, so its reads stop when ctx is done.
// Module-internal by its return type: the daemon (internal/jobs) samples
// a join's sides and feeds Map tasks from the handles its provider holds.
func (d *Dataset) Reader(ctx context.Context) coords.RecordReader {
	if d.file != nil {
		return &mapreduce.FileReader{File: d.file, Var: d.variable}
	}
	return &mapreduce.FuncReader{Fn: d.fn, Ctx: ctx}
}

// BuildIndex scans the dataset once and builds a structural block-range
// index over it (internal/sidx: per-block min/max/count summaries),
// splitting the leading dimension into the given number of blocks (0
// means the sidx default). The index is conservative: plans that consult
// it (RunOptions.Index) return byte-identical results to unindexed
// plans, only faster on selective predicates.
func (d *Dataset) BuildIndex(blocks int) (*sidx.VarIndex, error) {
	variable := d.variable
	if variable == "" {
		variable = "*" // synthetic datasets answer any variable name
	}
	return sidx.BuildVar(variable, d.shape, d.Reader(context.Background()), sidx.BuildOptions{Blocks: blocks})
}

// Query is a validated structural query.
type Query struct {
	q *query.Query
}

// ParseQuery parses the query language, e.g.
//
//	median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}
//	filter_gt temp[0,0 : 100,100] es {2,2} param 30
//
// See the internal/query package for the full syntax (stride,
// keep-partial).
func ParseQuery(s string) (*Query, error) {
	q, err := query.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// String renders the query in its canonical text form.
func (q *Query) String() string { return q.q.String() }

// Variable returns the dataset variable the query reads.
func (q *Query) Variable() string { return q.q.Variable }

// PartialResult is one keyblock's committed output, delivered as soon as
// its data dependencies are met (SIDR's early correct results).
type PartialResult struct {
	// Keyblock identifies the Reduce task.
	Keyblock int
	// Keys are intermediate-space (K') coordinates in row-major order.
	Keys [][]int64
	// Values holds the operator outputs per key (one value for
	// aggregates, zero or more for filters). A filter's values come in
	// the row-major order of the key's source cells.
	Values [][]float64
	// At is the wall-clock commit time.
	At time.Time
}

// Result is a completed query.
type Result struct {
	// Keys and Values list every output key (sorted row-major) with its
	// values. A filter's values come in the row-major order of the key's
	// source cells.
	Keys   [][]int64
	Values [][]float64
	// Partials are the per-keyblock outputs in commit order.
	Partials []PartialResult
	// FirstResult is the latency until the first keyblock committed.
	FirstResult time.Duration
	// Elapsed is the total query latency.
	Elapsed time.Duration
	// Connections counts shuffle fetches performed.
	Connections int64
	// TasksDispatched counts the Map and Reduce tasks the executor
	// dispatched for this run.
	TasksDispatched int64
	// KeyblockLoads is the plan's per-keyblock expected intermediate
	// load: sampled estimates for join plans, geometric expected counts
	// otherwise. Skew statistics (internal/skew) derive from it.
	KeyblockLoads []int64
}

// RunOptions tunes execution.
type RunOptions struct {
	// Engine selects semantics; the zero value is Hadoop.
	Engine Engine
	// Reducers is the Reduce task count (default 4).
	Reducers int
	// SplitPoints is the target input-split granularity in points
	// (default: the whole input split into ~8 pieces).
	SplitPoints int64
	// MaxSkew bounds partition+ keyblock skew in K' keys (SIDR only).
	MaxSkew int64
	// Priority orders keyblock scheduling for computational steering
	// (SIDR only).
	Priority []int
	// Index, when set, lets the planner prune input splits that a
	// value-predicated query (filter_gt, filter_lt, filter_range)
	// provably cannot match, before the dependency graph is derived.
	// Results are identical to running without the index. Build one
	// with Dataset.BuildIndex.
	Index *sidx.VarIndex
	// Workers bounds the run's task concurrency. Without an injected
	// executor it sizes the run's private worker pool (default
	// runtime.GOMAXPROCS(0), so the engine scales with the machine);
	// with Exec set it caps how many of the run's tasks execute
	// concurrently on the shared pool (0 = bounded only by the pool).
	Workers int
	// Exec, when set, runs the query's Map and Reduce tasks on a shared
	// bounded executor (internal/exec) instead of a private per-run pool,
	// so many concurrent runs stay within one process-wide worker budget.
	// The executor must outlive the call.
	Exec *exec.Executor
	// OnPartial receives each keyblock's output as soon as it commits.
	// Callbacks may arrive concurrently.
	OnPartial func(PartialResult)
	// NoJoinRetile disables skew-adaptive keyblock re-tiling for join
	// queries, keeping the base partition+ layout (the naive baseline;
	// join queries only).
	NoJoinRetile bool
}

// Errors reported when a query's kind does not match the entry point.
var (
	// errJoinNeedsTwoDatasets rejects a join query handed to Run: a join
	// reads two datasets, so use RunJoin.
	errJoinNeedsTwoDatasets = errors.New("sidr: a join query needs two datasets (use RunJoin)")
	// errNotJoin rejects a single-input query handed to RunJoin.
	errNotJoin = errors.New("sidr: RunJoin needs a join query")
)

// newPlan normalises the plan-time options in place and derives the
// plan. samplerA/B are a join's two inputs, sampled for its keyblock
// layout; a single-input plan has none and may prune by opts.Index.
func newPlan(q *Query, opts *RunOptions, samplerA, samplerB coords.RecordReader) (*core.Plan, error) {
	opts.Reducers, opts.SplitPoints = core.RequestDefaults(q.q, opts.Reducers, opts.SplitPoints)
	return core.NewPlan(q.q, opts.Engine, core.Options{
		Reducers:     opts.Reducers,
		SplitPoints:  opts.SplitPoints,
		MaxSkew:      opts.MaxSkew,
		Priority:     opts.Priority,
		Index:        opts.Index,
		JoinSamplerA: samplerA,
		JoinSamplerB: samplerB,
		NoJoinRetile: opts.NoJoinRetile,
	})
}

// runPlan executes a derived plan on the in-process engine, single-input
// (readerB nil) or join, and ends in NewResult. Each Reduce output is
// copied into a PartialResult once per consumer: for opts.OnPartial as it
// commits, and for Result.Partials from the loop's events. Only the
// execution-time fields of opts (Workers, Exec, OnPartial) are read.
func runPlan(plan *core.Plan, readerA, readerB coords.RecordReader, opts RunOptions) (*Result, error) {
	loop, err := plan.RunLocalJoin(readerA, readerB, func(cfg *mapreduce.Config) {
		cfg.Workers = opts.Workers
		cfg.Exec = opts.Exec
		if opts.OnPartial != nil {
			cfg.OnReduceOutput = func(out mapreduce.ReduceOutput) {
				opts.OnPartial(NewPartial(out, time.Now()))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return NewResult(plan, loop, nil)
}

// NewResult builds the Result of a finished run of plan from the job
// loop's own result — the one tail of every run, in process or on a
// cluster. log is the run's partial sequence when the caller already
// keeps one (the daemon's job log: a trusted consumer shares it with the
// result instead of copying every key again); nil builds it from the
// commit events. Module-internal like NewPartial, by its parameters.
func NewResult(plan *core.Plan, loop *mapreduce.Result, log []PartialResult) (*Result, error) {
	res := &Result{
		Partials:        log,
		Elapsed:         loop.Finished.Sub(loop.Started),
		Connections:     loop.Counters.Connections,
		TasksDispatched: loop.Counters.TasksDispatched,
		KeyblockLoads:   plan.Loads(),
	}
	for _, e := range loop.Events {
		if e.Kind != mapreduce.ReduceEnd {
			continue
		}
		if res.FirstResult == 0 {
			res.FirstResult = e.At.Sub(loop.Started)
		}
		if log == nil {
			res.Partials = append(res.Partials, NewPartial(loop.Outputs[e.Detail], e.At))
		}
	}
	var err error
	if res.Keys, res.Values, err = plan.Assemble(loop.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}

// NewPartial copies one keyblock's Reduce output into the facade's
// partial-result form, committed at the given time. Module-internal by
// its parameter type: the daemon (internal/jobs) builds its job log with
// it, so the copy is written once.
func NewPartial(out mapreduce.ReduceOutput, at time.Time) PartialResult {
	pr := PartialResult{Keyblock: out.Keyblock, Keys: make([][]int64, len(out.Keys)), Values: out.Values, At: at}
	n := 0
	for _, k := range out.Keys {
		n += len(k)
	}
	// One backing array for the partial's keys, each handed out clipped
	// to its own length so an append to one cannot reach the next.
	arena := make([]int64, 0, n)
	for i, k := range out.Keys {
		arena = append(arena, k...)
		pr.Keys[i] = arena[len(arena)-len(k) : len(arena) : len(arena)]
	}
	return pr
}

// Run executes the query over the dataset.
func Run(ds *Dataset, q *Query, opts RunOptions) (*Result, error) {
	if ds == nil || q == nil {
		return nil, fmt.Errorf("sidr: nil dataset or query")
	}
	if q.q.Join {
		return nil, errJoinNeedsTwoDatasets
	}
	if err := q.q.Validate(ds.shape); err != nil {
		return nil, err
	}
	plan, err := newPlan(q, &opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return runPlan(plan, ds.Reader(context.Background()), nil, opts)
}

// RunJoin plans and executes a two-input structural join query (parsed
// from the `join <op> A[...] es {..} with B[...] es {..}` grammar) over
// the two datasets: both sides' per-keyblock expected load is sampled at
// plan time, hot keyblocks are re-tiled (unless opts.NoJoinRetile), and
// the job runs on the in-process engine with the chosen engine's barrier
// and shuffle semantics. Partials carry raw per-keyblock reduce output —
// for a heavy tile carved into shares these are 4-wide moment rows,
// folded into final values during result assembly — while Keys/Values
// always hold the assembled final rows.
func RunJoin(a, b *Dataset, q *Query, opts RunOptions) (*Result, error) {
	if a == nil || b == nil || q == nil {
		return nil, fmt.Errorf("sidr: nil dataset or query")
	}
	if !q.q.Join {
		return nil, errNotJoin
	}
	if err := q.q.Validate(a.shape); err != nil {
		return nil, err
	}
	if err := q.q.ValidateSecond(b.shape); err != nil {
		return nil, err
	}
	ctx := context.Background()
	plan, err := newPlan(q, &opts, a.Reader(ctx), b.Reader(ctx))
	if err != nil {
		return nil, err
	}
	return runPlan(plan, a.Reader(ctx), b.Reader(ctx), opts)
}

// OutputSpace returns the shape of the query's intermediate/output
// keyspace K'^T.
func (q *Query) OutputSpace() ([]int64, error) {
	s, err := q.q.IntermediateSpace()
	if err != nil {
		return nil, err
	}
	return append([]int64(nil), s.Shape...), nil
}

// WriteDense writes a result as one dense ncfile per keyblock under dir,
// each with its global origin recorded — the contiguous output layout
// partition+ enables (§4.4). It requires a SIDR run whose keyblocks are
// rectangular and returns the file paths.
func WriteDense(dir string, ds *Dataset, q *Query, opts RunOptions, res *Result) ([]string, error) {
	if opts.Engine != SIDR {
		return nil, fmt.Errorf("sidr: dense output requires the SIDR engine")
	}
	plan, err := newPlan(q, &opts, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, pr := range res.Partials {
		slab, ok := plan.KeyblockSlab(pr.Keyblock)
		if !ok {
			if len(pr.Keys) == 0 {
				continue // empty keyblock
			}
			return nil, fmt.Errorf("sidr: keyblock %d is not rectangular", pr.Keyblock)
		}
		vals := make([]float64, slab.Size())
		for i, k := range pr.Keys {
			off, err := slab.Linearize(coords.NewCoord(k...))
			if err != nil {
				return nil, err
			}
			if len(pr.Values[i]) > 0 {
				vals[off] = pr.Values[i][0]
			}
		}
		path := fmt.Sprintf("%s/keyblock-%04d.ncf", dir, pr.Keyblock)
		if _, err := ncfile.WriteDense(path, "out", slab, vals); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
