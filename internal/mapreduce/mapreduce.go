// Package mapreduce implements the MapReduce runtime for structural
// queries — the repository's stand-in for Hadoop 1.0. Map tasks read
// logical-coordinate input splits (SciHadoop-style), emit intermediate
// ⟨k',v'⟩ pairs keyed by extraction-shape tile, optionally combine them,
// and partition them into keyblocks; Reduce tasks wait on a barrier
// (global, as stock Hadoop, or per-keyblock data dependencies, as SIDR),
// fetch and merge their pairs, validate kv-count annotations, and apply
// the query operator.
//
// There is one job loop (Job.Run) and it is SIDR's §3.3 scheduling rule
// realised as an explicit task graph on a bounded executor
// (internal/exec): every keyblock's Reduce task carries a
// remaining-dependency counter seeded from the dependency graph's I_ℓ
// (or the split count under the global barrier); a Map task's completion
// decrements its dependents and enqueues each Reduce task the moment its
// counter reaches zero; a Reduce task whose fetch reports a Map output
// lost re-arms — the split re-executes and every uncommitted dependent
// waits for it again; and the §3.2.1 kv-count tally gates every commit.
// Map readiness works the same way one level up: in a pipeline's
// downstream stage each split carries a counter of the upstream
// keyblocks it reads (Config.Upstream), and the upstream commit that
// zeroes it submits the Map task (Job.UpstreamCommitted). Readiness is
// therefore computed, not discovered — no task ever parks on a
// condition variable waiting for its barrier.
//
// Where the tasks run is a Runner's business. The in-process runner
// executes ExecMap into memory; internal/cluster's dispatches Map
// attempts to worker processes and fetches their spills over HTTP. Both
// are driven by the same loop, so scheduling, recovery and the count
// gate cannot differ between engines.
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
// dataset.
type InputSplit struct {
	ID   int
	Slab coords.Slab
	// Hosts are the simulated block store's hosts holding the slab,
	// primary first. Only the paper-scale experiment plans
	// (internal/experiments) set them, and only the simulated cluster
	// (internal/simcluster) reads them; the daemon's splits carry none.
	Hosts []string
}

// barrierMode selects how Reduce tasks synchronise with Map tasks.
type barrierMode int

const (
	// globalBarrier makes every Reduce task wait for all Map tasks —
	// stock Hadoop semantics (Figure 4a).
	globalBarrier barrierMode = iota
	// DependencyBarrier lets each Reduce task start once the splits in
	// its I_ℓ are processed — SIDR semantics (Figure 4b). Requires
	// Config.Graph.
	DependencyBarrier
)

// String names the mode.
func (b barrierMode) String() string {
	if b == globalBarrier {
		return "global"
	}
	return "dependency"
}

// eventKind enumerates trace events.
type eventKind int

const (
	// MapStart and MapEnd bracket a Map task (Detail = split id).
	MapStart eventKind = iota
	MapEnd
	// ReduceStart marks a Reduce task's barrier being satisfied and
	// processing beginning; ReduceEnd marks its output being committed
	// (Detail = keyblock id).
	ReduceStart
	ReduceEnd
	// mapLost marks a committed Map output declared lost by a Reduce
	// task's fetch: the split re-executes (Detail = split id).
	mapLost
)

// Event is one timestamped runtime event.
type Event struct {
	Kind   eventKind
	Detail int
	At     time.Time
}

// counters aggregates runtime statistics.
type counters struct {
	MapRecordsIn    int64 // source points read by Map tasks
	MapPairsOut     int64 // intermediate pairs: one per (split, K' key) the split touches
	ShuffleBytes    int64 // approximate bytes of Map output (each crosses the shuffle once)
	OutputValues    int64 // values emitted by Reduce tasks
	Connections     int64 // shuffle fetches (Table 3's metric)
	RecomputedMaps  int64 // Map outputs declared lost and re-executed
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
	Counters counters
	Events   []Event
	Started  time.Time
	Finished time.Time
}

// taskRunner is where a job's tasks execute. The job loop decides when each
// runs and what a failure re-opens; a Runner only carries the tasks out.
// Both methods are called concurrently from executor workers and must
// return promptly once ctx is done.
type taskRunner interface {
	// RunMap executes Map task split to completion: its output is
	// committed wherever the runner keeps Map outputs before RunMap
	// returns. A failure fails the job, so a runner with somewhere else
	// to retry does that first.
	RunMap(ctx context.Context, split int) (MapResult, error)
	// Fetch gathers keyblock l's Reduce input from refs, the MapResult.Refs
	// of the Map tasks l waits for in ascending split order. It returns the
	// sorted pair streams in that order and the tally of their kv-count
	// annotations. When some outputs cannot be had any more it returns
	// their splits in lost instead (err, if set, says why) — a Runner that
	// can lose an output makes its Ref name the split — and the loop
	// re-executes those and runs the Reduce again. An err with nothing lost
	// fails the job.
	// The streams belong to the Reduce that asked, which reorders samples
	// in place (execReduce): a local output of one (split, keyblock) pair
	// is read once, by one Reduce; the cluster decodes afresh on every
	// Fetch, re-arms included; the simulator returns no pairs.
	Fetch(ctx context.Context, l int, refs []any) (streams [][]kv.Pair, tally int64, lost []int, err error)
}

// MapResult is what a Runner reports for one completed Map task.
type MapResult struct {
	// Ref says where the committed output lives. It is opaque to the job
	// loop, which hands it back to Fetch.
	Ref any
	// Records is the number of source records read; Pairs and Bytes size
	// the intermediate output.
	Records, Pairs, Bytes int64
}

// MaxTaskAttempts bounds how many times one Map task may execute across
// loss-driven re-executions before the job gives up with
// ErrRetryExhausted.
const MaxTaskAttempts = 5

// Config parametrises a job.
type Config struct {
	Query  *query.Query
	Splits []InputSplit
	Reader coords.RecordReader
	Part   partition.Partitioner

	// Join, when set, runs the job as a structural join: Splits is the
	// combined two-sided split list (side derived from the index against
	// the join plan's SideBoundary), Reader serves side A and Reader2
	// side B (see MapInput.Join). The task graph, barriers, shuffle and
	// count validation work unchanged.
	Join    *join.Plan
	Reader2 coords.RecordReader

	// Runner, when set, executes the tasks somewhere other than this
	// process's memory (see Runner); the readers are then unused. Nil
	// runs ExecMap on Reader/Reader2 and keeps Map outputs in memory.
	Runner taskRunner

	// Ctx, when set, cancels the job: Map record loops, pending task
	// dispatch and Reduce execution all abort promptly once it is done,
	// and Run returns ctx.Err(). Nil means no cancellation.
	Ctx context.Context

	// Graph supplies I_ℓ and expected counts; required for
	// DependencyBarrier. When set, every Reduce task — whatever the
	// barrier — checks its kv-count annotation tally against the expected
	// source count before applying the operator (§3.2.1 approach 2).
	Graph   *depgraph.Graph
	Barrier barrierMode

	// Upstream, when set, makes the job a downstream stage of another:
	// split i's Map task reads the output of the upstream keyblocks in
	// Upstream.SplitToKB[i] and becomes runnable once UpstreamCommitted
	// has reported each of them — I_ℓ one level up (internal/pipeline).
	// Nil makes every Map task runnable at start.
	Upstream *depgraph.Graph

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

	// OnEvent, when set, receives every event as it happens (in addition
	// to Result.Events).
	OnEvent func(Event)

	// OnReduceOutput, when set, receives each Reduce task's committed
	// output the moment it is available — SIDR's early, correct,
	// partial results. Callbacks may arrive concurrently from multiple
	// Reduce workers; Run does not return while one is running.
	OnReduceOutput func(ReduceOutput)
}

// Errors reported by Run.
var (
	errNoQuery       = errors.New("mapreduce: config needs a query")
	errNoReader      = errors.New("mapreduce: config needs a record reader")
	errNoReader2     = errors.New("mapreduce: join config needs a second record reader")
	errNoPartitioner = errors.New("mapreduce: config needs a partitioner")
	errNeedsGraph    = errors.New("mapreduce: dependency barrier needs a dependency graph")
	errBadMapOrder   = errors.New("mapreduce: MapOrder must permute split indices")
	// ErrCountMismatch means a Reduce task's kv-count annotation tally did
	// not equal the dependency graph's expected source count; the task
	// refused to commit (§3.2.1).
	ErrCountMismatch = errors.New("mapreduce: kv-count annotation mismatch")
	// ErrRetryExhausted means a task kept failing, or its output kept
	// getting lost, until its attempt budget was spent.
	ErrRetryExhausted = errors.New("mapreduce: task attempt budget exhausted")
	// errExecutorClosed means the executor (or the job's handle on it) was
	// closed while the job still had tasks to submit — the process is
	// shutting down under the job.
	errExecutorClosed = errors.New("mapreduce: executor closed")

	errOutputLost = errors.New("map output lost")
)

// mapState is the job loop's record of one Map task.
type mapState struct {
	rank     int   // dispatch priority: position in MapOrder
	done     bool  // the current generation's output is committed
	gen      int   // outputs invalidated so far; names the current generation
	ref      any   // where the current generation's output lives (done only)
	attempts int   // executions submitted, bounded by MaxTaskAttempts
	cause    error // why the previous generation was declared lost
}

// Job is one run's task graph: per-split completion state, per-keyblock
// dependency counters and commit flags, plus the accumulated outputs and
// telemetry. Create with NewJob, execute with Run.
type Job struct {
	cfg     Config
	in      MapInput // the task bodies' input, fixed for the run
	runner  taskRunner
	order   []int // Map dispatch order; a split's position is its priority
	rOrder  []int
	allMaps []int // every split id, ascending: the global barrier's dependency set

	h      *exec.Handle
	ctx    context.Context // done once the job has failed or Run has returned
	cancel context.CancelFunc

	mu       sync.Mutex
	maps     []mapState
	events   []Event
	counters counters
	failed   error

	// Per-keyblock state, guarded by mu. remaining[l] is Reduce task l's
	// dependency counter: how many of its Map tasks have no committed
	// output right now. enqueued[l] says a Reduce task submitted for the
	// current outputs is queued or running; re-arm clears it, so a task
	// already in the queue finds its counter non-zero and steps aside.
	remaining  []int
	enqueued   []bool
	committed  []bool
	nCommitted int
	reduceRank []int // keyblock → position in rOrder (dispatch priority)
	results    []ReduceOutput

	// Map readiness, guarded by mu: upWait[i] counts the upstream
	// keyblocks split i still waits for (Config.Upstream; all zero without
	// one), awaiting the splits whose count is not zero yet. Until Run has
	// started, a count reaching zero leaves the split for Run to submit.
	upWait   []int
	awaiting int
	started  bool

	// inflight counts tasks handed to the executor and not yet returned
	// or dropped. The job is over when it is zero and every keyblock is
	// committed (or the job has failed); done closes then.
	inflight int
	done     chan struct{}
	settled  bool
}

// Run executes the job and blocks until completion.
func Run(cfg Config) (*Result, error) {
	j, err := NewJob(cfg)
	if err != nil {
		return nil, err
	}
	return j.Run()
}

// NewJob validates cfg and builds the job's task graph without starting
// it, so a Runner can hold the Job (for Needed) before the first task
// runs.
func NewJob(cfg Config) (*Job, error) {
	if cfg.Query == nil {
		return nil, errNoQuery
	}
	if cfg.Reader == nil && cfg.Runner == nil {
		return nil, errNoReader
	}
	if cfg.Part == nil {
		return nil, errNoPartitioner
	}
	if cfg.Barrier == DependencyBarrier && cfg.Graph == nil {
		return nil, errNeedsGraph
	}
	in := MapInput{
		Query:   cfg.Query,
		Part:    cfg.Part,
		Reader:  cfg.Reader,
		Join:    cfg.Join,
		Reader2: cfg.Reader2,
		Combine: true,
	}
	var err error
	if cfg.Join == nil {
		if in.Op, err = cfg.Query.Op(); err != nil {
			return nil, err
		}
	} else if cfg.Reader2 == nil && cfg.Runner == nil {
		return nil, errNoReader2
	}
	if in.Space, err = cfg.Query.IntermediateSpace(); err != nil {
		return nil, err
	}
	r := cfg.Part.NumKeyblocks()
	order, err := orderOrIdentity(cfg.MapOrder, len(cfg.Splits))
	if err != nil {
		return nil, err
	}
	rOrder, err := orderOrIdentity(cfg.ReduceOrder, r)
	if err != nil {
		return nil, err
	}
	allMaps, _ := orderOrIdentity(nil, len(cfg.Splits))
	j := &Job{
		cfg:        cfg,
		in:         in,
		runner:     cfg.Runner,
		order:      order,
		rOrder:     rOrder,
		allMaps:    allMaps,
		maps:       make([]mapState, len(cfg.Splits)),
		remaining:  make([]int, r),
		enqueued:   make([]bool, r),
		committed:  make([]bool, r),
		reduceRank: make([]int, r),
		results:    make([]ReduceOutput, r),
		upWait:     make([]int, len(cfg.Splits)),
		done:       make(chan struct{}),
	}
	if up := cfg.Upstream; up != nil {
		if len(up.SplitToKB) != len(cfg.Splits) {
			return nil, fmt.Errorf("mapreduce: upstream graph has %d splits for %d", len(up.SplitToKB), len(cfg.Splits))
		}
		for i, kbs := range up.SplitToKB {
			if j.upWait[i] = len(kbs); j.upWait[i] > 0 {
				j.awaiting++
			}
		}
	}
	if j.runner == nil {
		j.runner = localRunner{In: in, Splits: cfg.Splits}
	}
	for rank, i := range order {
		j.maps[i].rank = rank
	}
	for rank, l := range rOrder {
		j.reduceRank[l] = rank
		j.results[l].Keyblock = l
		j.remaining[l] = len(j.deps(l))
	}
	return j, nil
}

// deps returns the splits keyblock l's Reduce task waits for and fetches
// from: I_ℓ under the dependency barrier, every split under the global
// one — stock Hadoop's all-to-all shuffle, which is what Table 3 counts.
func (j *Job) deps(l int) []int {
	if j.cfg.Barrier == DependencyBarrier {
		return j.cfg.Graph.KBToSplits[l]
	}
	return j.allMaps
}

// dependents returns the keyblocks whose Reduce tasks wait for split i.
func (j *Job) dependents(i int) []int {
	if j.cfg.Barrier == DependencyBarrier {
		return j.cfg.Graph.SplitToKB[i]
	}
	return j.rOrder
}

// Needed reports whether an uncommitted keyblock still depends on split
// i's output — the one readiness question a Runner may ask (which
// straggler is worth a backup attempt, which hosted output a departing
// worker must still hand off).
func (j *Job) Needed(i int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return false
	}
	for _, l := range j.dependents(i) {
		if !j.committed[l] {
			return true
		}
	}
	return false
}

// Run executes the job and blocks until every keyblock has committed or
// the job has failed; either way every task the job started has returned
// first, so no OnEvent or OnReduceOutput callback outlives Run.
func (j *Job) Run() (*Result, error) {
	cfg := j.cfg
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

	// Cancellation: the caller's context failing the job drops every
	// pending task; the job's own context — what the Runner sees — is
	// done on any failure, so running tasks abort too.
	parent := cfg.Ctx
	if parent == nil {
		parent = context.Background()
	}
	j.ctx, j.cancel = context.WithCancel(parent)
	defer j.cancel()
	stop := context.AfterFunc(parent, func() { j.fail(parent.Err()) })
	defer stop()

	// Seed the task graph. Reduce tasks whose dependency counter is
	// already zero (empty keyblocks; any keyblock when there are no
	// splits) enqueue immediately — under SIDR scheduling Reduce tasks
	// are scheduled before the Map tasks they depend on (§3.3), which
	// exec.Class ordering guarantees for every later enqueue too.
	// Map tasks still waiting for upstream keyblocks are left to
	// UpstreamCommitted.
	j.mu.Lock()
	j.started = true
	for _, l := range j.rOrder {
		if j.remaining[l] == 0 {
			j.enqueueReduceLocked(l)
		}
	}
	for _, i := range j.order {
		if j.upWait[i] == 0 {
			j.submitMapLocked(i)
		}
	}
	j.settleLocked() // a splitless, reducerless job is already done
	j.mu.Unlock()

	<-j.done

	j.mu.Lock()
	defer j.mu.Unlock()
	j.counters.TasksDispatched = j.h.Dispatched()
	if j.failed != nil {
		// A cancelled job surfaces ctx.Err() itself, not a task-level
		// wrapping of it, so callers can compare with errors.Is/==.
		if cerr := parent.Err(); cerr != nil && errors.Is(j.failed, cerr) {
			return nil, cerr
		}
		return nil, j.failed
	}
	return &Result{
		Outputs:  j.results,
		Counters: j.counters,
		Events:   j.events,
		Started:  started,
		Finished: time.Now(),
	}, nil
}

// submitLocked hands one task to the executor and accounts it in flight
// until it has returned. A rejected submission — the executor is closed —
// fails the job instead of leaving it waiting for a task that will never
// run. Caller holds j.mu.
func (j *Job) submitLocked(class exec.Class, priority int, kind string, id int, fn func()) {
	if j.failed != nil {
		return
	}
	j.inflight++
	ok := j.h.Submit(class, priority, func() {
		if err := j.ctx.Err(); err != nil {
			j.fail(err) // cancelled — or a no-op: the job failed while the task sat in the queue
		} else {
			fn()
		}
		j.mu.Lock()
		j.inflight--
		j.settleLocked()
		j.mu.Unlock()
	})
	if !ok {
		j.inflight--
		j.failLocked(fmt.Errorf("%w: %s task %d rejected", errExecutorClosed, kind, id))
	}
}

// submitMapLocked submits an execution of Map task i — its first, or a
// re-execution after its output was lost — under the attempt budget.
// Caller holds j.mu.
func (j *Job) submitMapLocked(i int) {
	m := &j.maps[i]
	m.attempts++
	if m.attempts > MaxTaskAttempts {
		j.failLocked(fmt.Errorf("%w: map task %d exceeded %d attempts: %w", ErrRetryExhausted, i, MaxTaskAttempts, m.cause))
		return
	}
	j.submitLocked(exec.Map, m.rank, "map", i, func() { j.runMap(i) })
}

// enqueueReduceLocked submits Reduce task l, whose dependencies are now
// met. Caller holds j.mu. Class Reduce outranks queued Map work, and the
// keyblock's rOrder rank carries ReduceOrder steering into dispatch.
func (j *Job) enqueueReduceLocked(l int) {
	if j.enqueued[l] || j.committed[l] {
		return
	}
	j.enqueued[l] = true
	j.submitLocked(exec.Reduce, j.reduceRank[l], "reduce", l, func() { j.runReduce(l) })
}

// UpstreamCommitted reports that upstream keyblock l has committed its
// output: every split reading it (Config.Upstream.KBToSplits[l]) waits
// for one keyblock fewer, and each whose count reaches zero is submitted
// as a Map task — Map readiness computed the way Reduce readiness is.
// Call it once per upstream keyblock, before or during Run.
func (j *Job) UpstreamCommitted(l int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, i := range j.cfg.Upstream.KBToSplits[l] {
		j.upWait[i]--
		if j.upWait[i] > 0 {
			continue
		}
		j.awaiting--
		if j.started {
			j.submitMapLocked(i)
		}
	}
	if j.started {
		j.settleLocked() // a rejected submission has failed the job
	}
}

// settleLocked completes the job once nothing is in flight and no Map
// task still waits for an upstream commit (unless the job has failed).
// Caller holds j.mu.
func (j *Job) settleLocked() {
	if j.inflight > 0 || j.settled || j.awaiting > 0 && j.failed == nil {
		return
	}
	if j.failed == nil && j.nCommitted < len(j.committed) {
		// Nothing queued, nothing running, yet a keyblock is uncommitted:
		// a dependency counter was stranded. Only a bug in this file, or a
		// Runner reporting a loss outside the splits it was handed, gets
		// here; fail instead of hanging.
		j.failed = fmt.Errorf("mapreduce: job stalled with %d of %d keyblocks committed", j.nCommitted, len(j.committed))
	}
	j.settled = true
	close(j.done)
}

// failLocked records the first error, aborts running tasks through the
// job context and drops every pending one. Caller holds j.mu.
func (j *Job) failLocked(err error) {
	if j.failed != nil {
		return
	}
	j.failed = err
	j.cancel()
	j.inflight -= j.h.Cancel()
}

// fail records the job's first error; see failLocked.
func (j *Job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failLocked(err)
	j.settleLocked()
}

// logLocked appends an event. The caller passes it to deliver once it
// has dropped j.mu.
func (j *Job) logLocked(kind eventKind, detail int) Event {
	e := Event{Kind: kind, Detail: detail, At: time.Now()}
	j.events = append(j.events, e)
	return e
}

func (j *Job) emit(kind eventKind, detail int) {
	j.mu.Lock()
	e := j.logLocked(kind, detail)
	j.mu.Unlock()
	j.deliver(e)
}

func (j *Job) deliver(events ...Event) {
	if cb := j.cfg.OnEvent; cb != nil {
		for _, e := range events {
			cb(e)
		}
	}
}

// orderOrIdentity validates a task order as a permutation of [0,n); nil
// means identity.
func orderOrIdentity(order []int, n int) ([]int, error) {
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, nil
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: %d entries for %d tasks", errBadMapOrder, len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return nil, fmt.Errorf("%w: bad entry %d", errBadMapOrder, i)
		}
		seen[i] = true
	}
	return order, nil
}
