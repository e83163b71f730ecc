// Package mapreduce implements an in-process MapReduce runtime for
// structural queries — the repository's stand-in for Hadoop 1.0. Map
// tasks read logical-coordinate input splits (SciHadoop-style), emit
// intermediate ⟨k',v'⟩ pairs keyed by extraction-shape tile, optionally
// combine them, and partition them into keyblocks; Reduce tasks wait on a
// barrier (global, as stock Hadoop, or per-keyblock data dependencies, as
// SIDR), fetch and merge their pairs, validate kv-count annotations, and
// apply the query operator.
//
// The runtime is an explicit task graph on a bounded executor
// (internal/exec): every keyblock's Reduce task carries a
// remaining-dependency counter seeded from the dependency graph's I_ℓ
// (or the split count under the global barrier), and a Map task's
// completion decrements its dependents and enqueues each Reduce task the
// moment its counter reaches zero. Readiness is therefore computed, not
// discovered — no task ever parks on a condition variable waiting for
// its barrier — which is SIDR's §3.3 scheduling model realised in the
// runtime itself. Barrier semantics, shuffle connection counts, early
// results and the count annotations are all exercised end-to-end over
// real data rather than simulated.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/exec"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// InputSplit is a unit of Map work: a logical-coordinate slab of the
// dataset plus the hosts holding it (locality hints).
type InputSplit struct {
	ID    int
	Slab  coords.Slab
	Hosts []string
}

// RecordReader produces the ⟨k, v⟩ pairs of one input split. Readers
// must be safe for concurrent calls on distinct splits.
type RecordReader interface {
	// ReadSplit invokes emit for every point of the slab, in row-major
	// order, stopping on the first error. The coordinate is only valid
	// for the duration of the emit call — readers may reuse its storage
	// between records — so consumers that keep it must Clone it.
	ReadSplit(slab coords.Slab, emit func(k coords.Coord, v float64) error) error
}

// BarrierMode selects how Reduce tasks synchronise with Map tasks.
type BarrierMode int

const (
	// GlobalBarrier makes every Reduce task wait for all Map tasks —
	// stock Hadoop semantics (Figure 4a).
	GlobalBarrier BarrierMode = iota
	// DependencyBarrier lets each Reduce task start once the splits in
	// its I_ℓ are processed — SIDR semantics (Figure 4b). Requires
	// Config.Graph.
	DependencyBarrier
)

// String names the mode.
func (b BarrierMode) String() string {
	if b == GlobalBarrier {
		return "global"
	}
	return "dependency"
}

// EventKind enumerates trace events.
type EventKind int

const (
	// MapStart and MapEnd bracket a Map task (Detail = split id).
	MapStart EventKind = iota
	MapEnd
	// ReduceStart marks a Reduce task's barrier being satisfied and
	// processing beginning; ReduceEnd marks its output being committed
	// (Detail = keyblock id).
	ReduceStart
	ReduceEnd
	// ReduceRecovered marks a Reduce attempt that failed and was
	// re-executed (Detail = keyblock id).
	ReduceRecovered
)

// Event is one timestamped runtime event.
type Event struct {
	Kind   EventKind
	Detail int
	At     time.Time
}

// Counters aggregates runtime statistics.
type Counters struct {
	MapRecordsIn    int64 // source points read by Map tasks
	MapPairsOut     int64 // intermediate pairs after combining
	ReducePairsIn   int64 // pairs fetched by Reduce tasks
	ShuffleBytes    int64 // approximate bytes crossing the shuffle
	OutputValues    int64 // values emitted by Reduce tasks
	Connections     int64 // shuffle fetches (Table 3's metric)
	RecomputedMaps  int64 // Map tasks re-executed for failure recovery
	TasksDispatched int64 // Map and Reduce tasks dispatched by the executor
}

// ReduceOutput is the committed output of one Reduce task: the keys of
// its keyblock in row-major order with the operator's values for each.
type ReduceOutput struct {
	Keyblock int
	Keys     []coords.Coord
	Values   [][]float64
}

// Result is a completed job.
type Result struct {
	Outputs  []ReduceOutput // indexed by keyblock
	Counters Counters
	Events   []Event
	Started  time.Time
	Finished time.Time
}

// Config parametrises a job.
type Config struct {
	Query  *query.Query
	Splits []InputSplit
	Reader RecordReader
	Part   partition.Partitioner

	// Join, when set, runs the job as a structural join: Splits is the
	// combined two-sided split list (side derived from the index against
	// the join plan's SideBoundary), Reader serves side A and Reader2
	// side B (see MapInput.Join). The task graph, barriers, shuffle and
	// count validation work unchanged.
	Join    *join.Plan
	Reader2 RecordReader

	// Ctx, when set, cancels the job: Map record loops, pending task
	// dispatch and Reduce execution all abort promptly once it is done,
	// and Run returns ctx.Err(). Nil means no cancellation.
	Ctx context.Context

	// Graph supplies I_ℓ and expected counts; required for
	// DependencyBarrier and for count validation.
	Graph   *depgraph.Graph
	Barrier BarrierMode

	// ValidateCounts makes each Reduce task verify the kv-count annotation
	// tally against the expected source count before applying the
	// operator (§3.2.1 approach 2). Requires Graph.
	ValidateCounts bool

	// Combine runs map-side combining (lossless for distributive and
	// filter operators; skipped automatically for holistic ones).
	Combine bool

	// Workers bounds the job's task concurrency. Without an injected
	// executor it sizes the job's private worker pool (default
	// runtime.GOMAXPROCS(0)); with Exec set it caps how many of the
	// job's tasks run concurrently on the shared pool (0 leaves the job
	// bounded only by the pool itself).
	Workers int

	// Exec, when set, runs the job's tasks on a shared executor instead
	// of a private pool, so J concurrent jobs are bounded by one
	// process-wide worker count rather than J pools. The executor must
	// outlive the Run call.
	Exec *exec.Executor

	// Weight is the job's weighted-fair share of the shared executor:
	// when several jobs have runnable tasks, a weight-w job dispatches up
	// to w consecutive tasks per round-robin turn (default 1; only
	// meaningful with Exec).
	Weight int

	// MapOrder optionally reorders Map task execution (SIDR's scheduler
	// feeds dependency-driven order); nil runs splits in slice order.
	MapOrder []int

	// ReduceOrder optionally reorders Reduce task dispatch (SIDR's
	// keyblock prioritisation, §3.4); nil dispatches by ascending
	// keyblock id, Hadoop's policy.
	ReduceOrder []int

	// FailReduceOnce lists keyblocks whose Reduce task fails on its
	// first attempt, exercising the failure-recovery path. With
	// RecoverByRecompute the engine re-runs the Map tasks in I_ℓ instead
	// of refetching persisted intermediate data.
	FailReduceOnce     map[int]bool
	RecoverByRecompute bool

	// OnEvent, when set, receives every event as it happens (in addition
	// to Result.Events).
	OnEvent func(Event)

	// OnReduceOutput, when set, receives each Reduce task's committed
	// output the moment it is available — SIDR's early, correct,
	// partial results. Callbacks may arrive concurrently from multiple
	// Reduce workers.
	OnReduceOutput func(ReduceOutput)

	// SpillDir, when set, materialises Map outputs as on-disk spill
	// files (one per Map task and keyblock, with the §3.2.1 kv-count
	// annotation in the file header) that Reduce tasks read back during
	// the shuffle — Hadoop's real intermediate-data path. Empty keeps
	// intermediate data in memory.
	SpillDir string

	// SortBufferRecords bounds the Map-side accumulation buffer,
	// modelling Hadoop's io.sort.mb: when a Map task has buffered this
	// many source records it seals the buffer into a sorted segment and
	// starts a new one; segments are k-way merged map-side before the
	// output is published. Zero means unbounded (a single segment).
	SortBufferRecords int64
}

// Errors reported by Run.
var (
	ErrNoQuery       = errors.New("mapreduce: config needs a query")
	ErrNoReader      = errors.New("mapreduce: config needs a record reader")
	ErrNoReader2     = errors.New("mapreduce: join config needs a second record reader")
	ErrNoPartitioner = errors.New("mapreduce: config needs a partitioner")
	ErrNeedsGraph    = errors.New("mapreduce: dependency barrier and count validation need a dependency graph")
	ErrCountMismatch = errors.New("mapreduce: kv-count annotation mismatch")
	ErrBadMapOrder   = errors.New("mapreduce: MapOrder must permute split indices")
)

// mapOutput is the materialised output of one Map task for one keyblock —
// one partition of a Map output file. sourceCount is the file-header
// annotation of §3.2.1: the number of source ⟨k,v⟩ pairs the (possibly
// combined) pairs represent. In spill mode pairs is nil and path names
// the on-disk spill file.
type mapOutput struct {
	pairs       []kv.Pair
	path        string
	sourceCount int64
}

// job carries the shared state of one run: the task graph (dependency
// counters, enqueue flags) plus the accumulated outputs and telemetry.
type job struct {
	cfg    Config
	in     MapInput // the task bodies' input, fixed for the run
	h      *exec.Handle
	rOrder []int

	mu       sync.Mutex
	mapDone  []bool
	nDone    int
	outputs  [][]mapOutput // [split][keyblock]
	events   []Event
	counters Counters
	failed   error

	// Task-graph state, all guarded by mu. remaining[l] is Reduce task
	// l's dependency counter: the number of Map tasks that must complete
	// before l is runnable (|I_ℓ| under the dependency barrier, the split
	// count under the global one). outstanding counts unresolved tasks —
	// every Map and Reduce task resolves exactly once, by running, by
	// being dropped from the queue on failure, or (a Reduce never
	// enqueued) directly in failLocked — and done closes at zero.
	remaining   []int
	enqueued    []bool
	reduceRank  []int // keyblock → position in rOrder (dispatch priority)
	results     []ReduceOutput
	reduceErrs  []error
	outstanding int
	done        chan struct{}
	doneClosed  bool
}

// Run executes the job and blocks until completion.
func Run(cfg Config) (*Result, error) {
	if cfg.Query == nil {
		return nil, ErrNoQuery
	}
	if cfg.Reader == nil {
		return nil, ErrNoReader
	}
	if cfg.Part == nil {
		return nil, ErrNoPartitioner
	}
	if (cfg.Barrier == DependencyBarrier || cfg.ValidateCounts || cfg.RecoverByRecompute) && cfg.Graph == nil {
		return nil, ErrNeedsGraph
	}
	in := MapInput{
		Query:             cfg.Query,
		Part:              cfg.Part,
		Reader:            cfg.Reader,
		Join:              cfg.Join,
		Reader2:           cfg.Reader2,
		Combine:           cfg.Combine,
		SortBufferRecords: cfg.SortBufferRecords,
		Ctx:               cfg.Ctx,
	}
	var err error
	if cfg.Join == nil {
		if in.Op, err = cfg.Query.Op(); err != nil {
			return nil, err
		}
	} else if cfg.Reader2 == nil {
		return nil, ErrNoReader2
	}
	if in.Space, err = cfg.Query.IntermediateSpace(); err != nil {
		return nil, err
	}
	order := cfg.MapOrder
	if order == nil {
		order = make([]int, len(cfg.Splits))
		for i := range order {
			order[i] = i
		}
	} else if err := checkPermutation(order, len(cfg.Splits)); err != nil {
		return nil, err
	}
	rOrder := cfg.ReduceOrder
	if rOrder == nil {
		rOrder = make([]int, cfg.Part.NumKeyblocks())
		for i := range rOrder {
			rOrder[i] = i
		}
	} else if err := checkPermutation(rOrder, cfg.Part.NumKeyblocks()); err != nil {
		return nil, err
	}

	r := cfg.Part.NumKeyblocks()
	j := &job{
		cfg:         cfg,
		in:          in,
		rOrder:      rOrder,
		mapDone:     make([]bool, len(cfg.Splits)),
		outputs:     make([][]mapOutput, len(cfg.Splits)),
		remaining:   make([]int, r),
		enqueued:    make([]bool, r),
		reduceRank:  make([]int, r),
		results:     make([]ReduceOutput, r),
		reduceErrs:  make([]error, r),
		outstanding: len(cfg.Splits) + r,
		done:        make(chan struct{}),
	}
	for rank, l := range rOrder {
		j.reduceRank[l] = rank
	}

	// Without an injected executor the job runs on a private pool sized
	// by Workers; with one, Workers becomes the job's MaxParallel cap on
	// the shared pool.
	ex := cfg.Exec
	maxPar := 0
	if ex == nil {
		w := cfg.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		ex = exec.New(w)
		defer ex.Close()
	} else {
		maxPar = cfg.Workers
	}
	j.h = ex.NewHandle(exec.HandleOptions{Weight: cfg.Weight, MaxParallel: maxPar})
	defer j.h.Close()

	started := time.Now()

	// Cancellation: record ctx.Err() as the job failure, drop every
	// pending task and resolve the owed ones the moment the context is
	// done. Running Map record loops observe the failure inside their
	// amortised cancellation checks.
	if cfg.Ctx != nil {
		stop := context.AfterFunc(cfg.Ctx, func() { j.fail(cfg.Ctx.Err()) })
		defer stop()
	}

	// Seed the task graph. Reduce tasks whose dependency counter is
	// already zero (empty keyblocks; any keyblock when there are no
	// splits) enqueue immediately — under SIDR scheduling Reduce tasks
	// are scheduled before the Map tasks they depend on (§3.3), which
	// exec.Class ordering guarantees for every later enqueue too.
	j.mu.Lock()
	for _, l := range rOrder {
		if cfg.Barrier == DependencyBarrier {
			j.remaining[l] = len(cfg.Graph.KBToSplits[l])
		} else {
			j.remaining[l] = len(cfg.Splits)
		}
		if j.remaining[l] == 0 {
			j.enqueueReduceLocked(l)
		}
	}
	for prio, i := range order {
		i := i
		j.h.Submit(exec.Map, prio, func() {
			err := j.aborted()
			if err == nil {
				err = j.runMap(i)
			}
			j.mapFinished(i, err)
		})
	}
	j.resolveLocked(0) // a splitless, reducerless job is already done
	j.mu.Unlock()

	<-j.done

	j.mu.Lock()
	defer j.mu.Unlock()
	j.counters.TasksDispatched = j.h.Dispatched()
	if j.failed != nil {
		// A cancelled job surfaces ctx.Err() itself, not a task-level
		// wrapping of it, so callers can compare with errors.Is/==.
		if cfg.Ctx != nil {
			if cerr := cfg.Ctx.Err(); cerr != nil && errors.Is(j.failed, cerr) {
				return nil, cerr
			}
		}
		return nil, j.failed
	}
	for _, err := range j.reduceErrs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{
		Outputs:  j.results,
		Counters: j.counters,
		Events:   j.events,
		Started:  started,
		Finished: time.Now(),
	}, nil
}

// mapFinished resolves Map task i: on success it publishes completion to
// the task graph, decrementing every dependent Reduce task's counter and
// enqueueing those that become ready.
func (j *job) mapFinished(i int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.failLocked(err)
	} else if j.failed == nil && !j.mapDone[i] {
		j.mapDone[i] = true
		j.nDone++
		if j.cfg.Barrier == DependencyBarrier {
			for _, l := range j.cfg.Graph.SplitToKB[i] {
				j.remaining[l]--
				if j.remaining[l] == 0 {
					j.enqueueReduceLocked(l)
				}
			}
		} else {
			// Global barrier: every Reduce task depends on every split.
			for _, l := range j.rOrder {
				j.remaining[l]--
				if j.remaining[l] == 0 {
					j.enqueueReduceLocked(l)
				}
			}
		}
	}
	j.resolveLocked(1)
}

// enqueueReduceLocked submits Reduce task l, whose dependencies are now
// met. Caller holds j.mu. Class Reduce outranks queued Map work, and the
// keyblock's rOrder rank carries ReduceOrder steering into dispatch.
func (j *job) enqueueReduceLocked(l int) {
	if j.enqueued[l] {
		return
	}
	j.enqueued[l] = true
	j.h.Submit(exec.Reduce, j.reduceRank[l], func() {
		out := ReduceOutput{Keyblock: l}
		err := j.aborted()
		if err == nil {
			out, err = j.runReduce(l)
		}
		j.mu.Lock()
		j.results[l] = out
		j.reduceErrs[l] = err
		if err != nil {
			j.failLocked(err)
		}
		j.resolveLocked(1)
		j.mu.Unlock()
	})
}

// resolveLocked accounts n resolved tasks and completes the job when no
// task remains outstanding. Caller holds j.mu.
func (j *job) resolveLocked(n int) {
	j.outstanding -= n
	if j.outstanding <= 0 && !j.doneClosed {
		j.doneClosed = true
		close(j.done)
	}
}

// failLocked records the first error, drops every pending task from the
// executor queue, and resolves the Reduce tasks that were never enqueued
// so the job can complete. Caller holds j.mu.
func (j *job) failLocked(err error) {
	if j.failed != nil {
		return
	}
	j.failed = err
	// Dropped tasks (queued Maps and enqueued-but-undispatched Reduces)
	// will never run; account them resolved here. Tasks already running
	// resolve themselves when their fn returns.
	j.resolveLocked(j.h.Cancel())
	for _, l := range j.rOrder {
		if !j.enqueued[l] {
			j.enqueued[l] = true
			j.results[l] = ReduceOutput{Keyblock: l}
			j.reduceErrs[l] = err
			j.resolveLocked(1)
		}
	}
}

// fail records the first error and releases every owed task.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failLocked(err)
}

// aborted returns the job's recorded failure, if any.
func (j *job) aborted() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

func (j *job) emit(e Event) {
	j.mu.Lock()
	j.events = append(j.events, e)
	cb := j.cfg.OnEvent
	j.mu.Unlock()
	if cb != nil {
		cb(e)
	}
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("%w: %d entries for %d splits", ErrBadMapOrder, len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("%w: bad entry %d", ErrBadMapOrder, i)
		}
		seen[i] = true
	}
	return nil
}
