// Package cluster is the multi-process distributed runtime: a
// coordinator (embedded in sidrd, or standalone) that dispatches Map
// tasks over HTTP to worker processes, and workers that execute them,
// materialise partition+ keyblock spills with the internal/kv codec,
// and serve those spills from a shuffle endpoint.
//
// A clustered job runs on the same job loop as an in-process one
// (mapreduce.Job): this package is that loop's remote Runner. The loop
// decides when a Reduce task may run, what a lost spill re-opens and
// whether a keyblock may commit; the runner carries the tasks out
// across process boundaries, which is where the paper's cluster-scale
// claims become real:
//
//   - Reduce tasks fetch only their I_ℓ dependency set — point-to-point
//     streamed HTTP fetches, O(Σ|I_ℓ|) total shuffle connections instead
//     of O(maps×reduces) (§3.3, Fig. 6, Table 3).
//   - Every spill carries the §3.2.1 kv-count annotation in its header;
//     a fetch tallies the annotations of its spills and the loop's gate
//     refuses to commit a keyblock whose tally is not the dependency
//     graph's expected count.
//   - Early results without a global barrier: each Reduce task runs the
//     moment the splits in its I_ℓ are mapped, with Reduce-class
//     dispatch outranking queued Map dispatch on internal/exec.
//
// Robustness is part of the subsystem: workers heartbeat and are
// evicted on a deadline, dispatches and fetches retry with exponential
// backoff plus jitter, a fetch that finds spills gone reports them lost
// so the loop re-executes their Map tasks — under a fresh attempt ID,
// late results from superseded attempts being discarded. When a job
// resolves the coordinator broadcasts a release, dropping the workers'
// cached job state and spills; workers also replace cached state whose
// job ID is reused with a different plan/dataset tuple.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sidr/internal/core"
	"sidr/internal/join"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
)

// Errors surfaced by the runtime. The daemon maps them onto the
// wire.Error detail vocabulary ("no-workers", "shuffle-retry-exhausted").
var (
	// ErrNoWorkers means the coordinator has no live worker to dispatch
	// to — every registered worker is gone or evicted.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrRetryExhausted means a dispatch kept failing after every retry,
	// or a Map output kept getting lost until the job loop's re-execution
	// budget was spent. It is the job loop's own value, as are the count
	// mismatch and closed-executor errors a job can fail with: both
	// engines fail with the same errors.
	ErrRetryExhausted = mapreduce.ErrRetryExhausted
	// ErrSpillCorrupt means a Map task's re-execution budget was spent on
	// spills that kept failing their payload checksum — the job refused
	// to commit corrupt pairs and gave up instead.
	ErrSpillCorrupt = errors.New("cluster: spill integrity failure")
)

// DatasetSpec tells a worker how to open the job's dataset by itself: an
// ncfile container at a path visible to the worker process. Every
// dataset a daemon serves is a file (sidrd registers the *.ncf files of
// its -data directory), so that is the only kind the wire carries; to
// run a generated dataset on a cluster, write it to a file first with the
// datagen command or with WriteDataset (internal/datagen).
type DatasetSpec struct {
	// Kind is "file".
	Kind string `json:"kind"`
	// Path is the ncfile container path.
	Path string `json:"path,omitempty"`
	// Variable is the ncfile variable to read.
	Variable string `json:"variable,omitempty"`
}

// JobPlan is the plan-defining tuple shipped with every Map task. A
// plan (splits, K'^T, partitioner, keyblocks, I_ℓ) is a pure function
// of this tuple — SIDR's routing is computable before execution (§3) —
// so the worker re-derives exactly the coordinator's plan from these
// few scalars instead of receiving serialized split geometry.
type JobPlan struct {
	Query       string `json:"query"`
	Engine      string `json:"engine"`
	Reducers    int    `json:"reducers"`
	SplitPoints int64  `json:"split_points"`
	MaxSkew     int64  `json:"max_skew,omitempty"`
	// Pruned, when non-nil, restricts the plan to these indices of the
	// unpruned split generation order: the structural-index keep list
	// the submitter computed (see internal/sidx). Workers hold no
	// index, so the kept list rides in the tuple and every party still
	// derives the identical pruned plan from the same few scalars. No
	// omitempty: an empty non-nil list ("every split pruned") must
	// survive the wire distinct from nil ("unpruned").
	Pruned []int `json:"pruned"`
	// Retile carries a join plan's keyblock layout — the one plan input
	// that is NOT a pure function of the tuple (it was sampled from the
	// data at plan time). Workers rebuild routing from it verbatim and
	// never re-sample, so clustered and in-process runs stay
	// byte-identical. Nil for single-input plans.
	Retile *join.Retile `json:"retile,omitempty"`
}

// NewPlan derives the core.Plan the tuple defines — what a worker does
// with every tuple it receives, and what Coordinator.Run does for a
// caller that holds no plan.
func (jp JobPlan) newPlan() (*core.Plan, error) {
	engine, err := core.ParseEngine(jp.Engine)
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(jp.Query)
	if err != nil {
		return nil, err
	}
	if jp.Reducers < 1 {
		return nil, fmt.Errorf("cluster: job plan needs reducers >= 1, got %d", jp.Reducers)
	}
	if jp.SplitPoints <= 0 {
		return nil, fmt.Errorf("cluster: job plan needs explicit split_points, got %d", jp.SplitPoints)
	}
	return core.NewPlan(q, engine, core.Options{
		Reducers:    jp.Reducers,
		SplitPoints: jp.SplitPoints,
		MaxSkew:     jp.MaxSkew,
		KeepSplits:  jp.Pruned,
		Retile:      jp.Retile,
	})
}

// planTuple reads the tuple off a derived plan: the inverse of NewPlan,
// and the one place a data-dependent plan input (the index's kept list,
// a join's sampled layout) is put on the wire.
func planTuple(p *core.Plan) JobPlan {
	jp := JobPlan{
		Query:       p.Query.String(),
		Engine:      p.Engine.String(), // ParseEngine folds case
		Reducers:    p.Reducers,
		SplitPoints: p.SplitPoints,
		MaxSkew:     p.MaxSkew,
		Pruned:      p.KeptSplits,
	}
	if p.Join != nil {
		rt := p.Join.Retiling()
		jp.Retile = &rt
	}
	return jp
}

// mapRequest asks a worker to execute one Map task attempt.
type mapRequest struct {
	JobID   string      `json:"job_id"`
	Split   int         `json:"split"`
	Attempt int         `json:"attempt"`
	Plan    JobPlan     `json:"plan"`
	Dataset DatasetSpec `json:"dataset"`
	// Dataset2 is the join's side-B dataset; nil for single-input jobs.
	Dataset2 *DatasetSpec `json:"dataset2,omitempty"`
}

// keyblockMeta summarises one keyblock's share of a completed Map task:
// the spill's pair count, its kv-count annotation, and its serialised
// size. Keyblocks the task produced no data for are omitted.
type keyblockMeta struct {
	Keyblock    int   `json:"keyblock"`
	Pairs       int   `json:"pairs"`
	SourceCount int64 `json:"source_count"`
	Bytes       int64 `json:"bytes"`
}

// mapResponse reports a completed Map task attempt. The spills named by
// Outputs are fetchable from the worker's shuffle endpoint until the
// job is released.
type mapResponse struct {
	JobID   string         `json:"job_id"`
	Split   int            `json:"split"`
	Attempt int            `json:"attempt"`
	Records int64          `json:"records"`
	Outputs []keyblockMeta `json:"outputs"`
}

// registerRequest announces a worker to the coordinator.
type registerRequest struct {
	// Name is the worker's stable identity; locality hints match against
	// it. Re-registering an evicted name revives it.
	Name string `json:"name"`
	// URL is the base URL the coordinator dials the worker at.
	URL string `json:"url"`
	// Node is the worker's locality identity: the HDFS-namespace node it
	// claims co-location with. Split host lists match against it (and,
	// as a fallback, against Name). Empty means placement-blind.
	Node string `json:"node,omitempty"`
}

// heartbeatRequest keeps a registered worker alive.
type heartbeatRequest struct {
	Name string `json:"name"`
}

// heartbeatResponse is the coordinator's reply to a heartbeat. Draining
// tells the worker the coordinator has put it into the draining state
// (an operator hit POST /v1/drain naming it); the worker should stop
// accepting Map dispatches and begin its own drain flow. A drained and
// released worker gets a 404 instead — that is its signal to exit.
type heartbeatResponse struct {
	Draining bool `json:"draining,omitempty"`
}

// drainRequest asks the coordinator to move one worker into the
// draining state: no new dispatches, in-flight attempts finish, spills
// keep being served until no uncommitted keyblock needs any hosted
// attempt, then the worker is released (deregistered without
// the death penalty — drain never contributes to health scoring).
type drainRequest struct {
	Name string `json:"name"`
}

// releaseRequest asks a worker to drop one job's cached plan/dataset
// state and delete its spills. The coordinator broadcasts it to live
// workers when a job resolves (success or failure). When Split and
// Attempt are both set, the release is scoped to that single attempt's
// spill directory — used to reclaim a cancelled speculative attempt's
// output while the job keeps running.
type releaseRequest struct {
	JobID   string `json:"job_id"`
	Split   *int   `json:"split,omitempty"`
	Attempt *int   `json:"attempt,omitempty"`
}

// workerInfo is the coordinator's view of one worker, as listed by
// GET /v1/cluster/workers.
type workerInfo struct {
	Name      string  `json:"name"`
	URL       string  `json:"url"`
	Node      string  `json:"node,omitempty"`
	Alive     bool    `json:"alive"`
	Running   int     `json:"running"`
	MapsDone  int64   `json:"maps_done"`
	LastSeenS float64 `json:"last_seen_s"` // seconds since last heartbeat
	// FailScore is the EWMA of recent dispatch/fetch/probe failures
	// (0 = healthy, 1 = every recent interaction failed).
	FailScore float64 `json:"fail_score"`
	// Quarantined workers receive no new dispatches (their spills are
	// still served) until health probes decay the score back down.
	Quarantined bool `json:"quarantined,omitempty"`
	// Draining workers finish in-flight work and serve spills but accept
	// no new dispatches; Drained means the drain completed and the
	// worker was released.
	Draining bool `json:"draining,omitempty"`
	Drained  bool `json:"drained,omitempty"`
}

// shuffleBatchPath is the worker's one shuffle endpoint: one POST
// fetches N≥1 spills of one keyblock — normally a Reduce task's entire
// I_ℓ subset held by that worker, collapsing the per-(reduce, split)
// request fan-out to one request per (reduce, worker) pair; a retry is
// the same request naming one spill.
const shuffleBatchPath = "/v1/shuffle/batch"

// spillRef names one spill inside a batch fetch; the keyblock is shared
// by the whole request.
type spillRef struct {
	Split   int `json:"split"`
	Attempt int `json:"attempt"`
}

// batchFetchRequest asks a worker for several spills of one keyblock in
// a single framed response stream. Spills are returned in request
// order — the fetcher depends on it to keep the Reduce merge's stream
// order (and therefore its tie-breaking) identical to the in-process
// engine's.
type batchFetchRequest struct {
	JobID    string     `json:"job_id"`
	Keyblock int        `json:"keyblock"`
	Spills   []spillRef `json:"spills"`
}

// The batch response body is a sequence of frames, one per requested
// spill, in request order:
//
//	magic "SFRM" | u32 split | u32 attempt | u32 keyblock | u64 length
//	length bytes: the spill's exact bytes in its pack (kv spill codec)
//
// The response carries an exact Content-Length (Σ frames), computed
// from the spill store's directory before the first byte is written, so
// a Reduce-side reader can detect truncation without trailers and the
// transport's response-header timeout never waits on spill encoding.
var frameMagic = [4]byte{'S', 'F', 'R', 'M'}

const frameHeaderLen = 24

// putFrameHeader encodes one frame header into b.
func putFrameHeader(b []byte, split, attempt, keyblock int, length int64) {
	copy(b[:4], frameMagic[:])
	le := binary.LittleEndian
	le.PutUint32(b[4:8], uint32(split))
	le.PutUint32(b[8:12], uint32(attempt))
	le.PutUint32(b[12:16], uint32(keyblock))
	le.PutUint64(b[16:24], uint64(length))
}

// parseFrameHeader decodes one frame header.
func parseFrameHeader(b []byte) (split, attempt, keyblock int, length int64, err error) {
	if [4]byte(b[:4]) != frameMagic {
		return 0, 0, 0, 0, fmt.Errorf("cluster: bad shuffle frame magic %q", b[:4])
	}
	le := binary.LittleEndian
	split = int(le.Uint32(b[4:8]))
	attempt = int(le.Uint32(b[8:12]))
	keyblock = int(le.Uint32(b[12:16]))
	length = int64(le.Uint64(b[16:24]))
	if split < 0 || attempt < 0 || keyblock < 0 || length < 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: implausible shuffle frame %d/%d/%d len=%d",
			split, attempt, keyblock, length)
	}
	return split, attempt, keyblock, length, nil
}
