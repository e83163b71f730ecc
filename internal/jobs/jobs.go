// Package jobs runs queries as managed jobs on a bounded worker pool:
// admission control at submit, a lifecycle FSM
// (queued→running→done/failed/cancelled) with per-job context
// cancellation, a versioned result cache with in-flight collapse, and a
// partial-result log that late subscribers replay — the daemon-side
// substrate for streaming SIDR's early correct results.
package jobs

import (
	"context"
	"sync"
	"time"

	"sidr"
	"sidr/internal/query"
	"sidr/internal/skew"
	"sidr/internal/wire"
)

// jobState is a job's lifecycle position.
type jobState int

const (
	// stateQueued means admitted but not yet claimed by a worker.
	stateQueued jobState = iota
	// stateRunning means a worker is executing the query.
	stateRunning
	// Done means the query completed and Result is set.
	Done
	// stateFailed means the query errored; Err is set.
	stateFailed
	// Cancelled means the job was cancelled while queued or running.
	Cancelled
)

// String names the state as it appears on the wire.
func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case Done:
		return "done"
	case stateFailed:
		return "failed"
	case Cancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// terminal reports whether the state is final.
func (s jobState) terminal() bool { return s == Done || s == stateFailed || s == Cancelled }

// Request describes one query submission.
type Request struct {
	// Dataset names a dataset in the manager's provider.
	Dataset string `json:"dataset"`
	// Dataset2 names the side-B dataset of a structural join query;
	// required for (and only valid with) the `join ...` grammar. Both
	// datasets' versions enter the result-cache and collapse keys.
	Dataset2 string `json:"dataset2,omitempty"`
	// Query is the structural query text.
	Query string `json:"query"`
	// Engine is "hadoop", "scihadoop" or "sidr" (default).
	Engine string `json:"engine,omitempty"`
	// Reducers is the Reduce task count (default 4).
	Reducers int `json:"reducers,omitempty"`
	// Workers bounds Map/Reduce concurrency (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// SplitPoints is the input-split granularity in points (default:
	// input split into ~8 pieces).
	SplitPoints int64 `json:"split_points,omitempty"`
	// MaxSkew bounds partition+ keyblock skew (SIDR engine only).
	MaxSkew int64 `json:"max_skew,omitempty"`
	// Cluster routes the job through the distributed runtime: Map tasks
	// dispatch to registered sidr-worker processes and Reduce tasks fetch
	// their I_ℓ spills over the networked shuffle. Requires the manager
	// to be configured with a coordinator.
	Cluster bool `json:"cluster,omitempty"`
	// Tenant is the tenant the job is accounted to for quota and
	// weighted-fair scheduling; the server fills it from the
	// X-SIDR-Tenant header, and empty means defaultTenantName.
	Tenant string `json:"tenant,omitempty"`
}

// Snapshot is a point-in-time view of a job for status responses.
type Snapshot struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Dataset  string `json:"dataset"`
	Dataset2 string `json:"dataset2,omitempty"`
	Query    string `json:"query"`
	Engine   string `json:"engine"`
	Reducers int    `json:"reducers"`
	Cluster  bool   `json:"cluster,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Partials int    `json:"partials"`
	// Skew summarises the plan's per-keyblock load balance, computed from
	// its expected per-keyblock loads (sampled estimates for join plans,
	// geometric expected counts otherwise); set once the job has executed
	// (absent for cache hits and collapse followers).
	Skew *skew.Summary `json:"skew,omitempty"`
	// ResultHit marks a job served entirely from the versioned result
	// cache: it was terminal at submission and never executed.
	ResultHit bool `json:"result_cache_hit,omitempty"`
	// CollapsedInto names the in-flight job this submission attached to
	// as a collapse subscriber (empty for jobs that executed).
	CollapsedInto string    `json:"collapsed_into,omitempty"`
	Error         string    `json:"error,omitempty"`
	Created       time.Time `json:"created"`
	Started       time.Time `json:"started"`
	Finished      time.Time `json:"finished"`
}

// Job is one managed query execution. All exported methods are safe for
// concurrent use.
//
// A job is usually a leader: it owns an execution and its partial log is
// the bounded replay buffer late stream subscribers read from. A job can
// instead be a collapse follower — an identical concurrent submission
// that attached to a running leader: it never executes, its partial log
// mirrors the leader's (already-committed partials replayed at attach,
// live ones forwarded as they commit), and it terminalises when the
// leader does. Cancelling a follower detaches only that subscriber; the
// shared execution and its other subscribers are unaffected.
type Job struct {
	ID  string
	Req Request

	q      *query.Query // Req.Query, parsed once at Submit
	engine sidr.Engine  // Req.Engine, likewise
	ctx    context.Context
	cancel context.CancelFunc

	// cacheKey is the fast-path identity {dataset version, canonical
	// query, engine, reducers, ...} the manager collapses and caches on
	// (empty when the dataset provider is unversioned). notify fires
	// exactly once when the job turns terminal, with no job lock held —
	// the manager uses it for tenant in-flight and collapse-map cleanup.
	cacheKey string
	// hit is the result-cache entry a job served from the cache was born
	// from (nil for every other job); set before the job is published.
	hit        *resultEntry
	follower   bool
	notify     func()
	notifyOnce sync.Once

	mu            sync.Mutex
	cond          *sync.Cond
	state         jobState
	err           error
	result        *sidr.Result
	partials      []sidr.PartialResult
	followers     []*Job
	resultHit     bool
	skewStats     *skew.Summary
	collapsedInto string
	created       time.Time
	started       time.Time
	finished      time.Time
}

func newJob(id string, req Request, q *query.Query, engine sidr.Engine) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{ID: id, Req: req, q: q, engine: engine, ctx: ctx, cancel: cancel, created: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// currentState returns the current lifecycle state.
func (j *Job) currentState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil unless failed or cancelled).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the completed result, or nil before Done.
func (j *Job) Result() *sidr.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// EncodedStream returns the job's whole stream in the form it is sent —
// the cache entry's own bytes, encoded once for every hit of the entry —
// when the job was served from the result cache, and nil for any other
// job: those stream through Stream as their keyblocks commit.
func (j *Job) EncodedStream() ([]wire.EncodedEvent, error) {
	if j.hit == nil {
		return nil, nil
	}
	return j.hit.stream()
}

// Snapshot captures the job's current status.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:            j.ID,
		State:         j.state.String(),
		Dataset:       j.Req.Dataset,
		Dataset2:      j.Req.Dataset2,
		Query:         j.Req.Query,
		Engine:        j.Req.Engine,
		Reducers:      j.Req.Reducers,
		Cluster:       j.Req.Cluster,
		Tenant:        j.Req.Tenant,
		Partials:      len(j.partials),
		ResultHit:     j.resultHit,
		Skew:          j.skewStats,
		CollapsedInto: j.collapsedInto,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Cancel moves the job to Cancelled if it is still queued and signals
// the run context; a running job transitions once the engine unwinds.
// Cancelling a collapse follower detaches only that subscriber — the
// leader's execution and its other subscribers keep going.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == stateQueued || (j.follower && !j.state.terminal()) {
		j.state = Cancelled
		j.err = context.Canceled
		j.finished = time.Now()
		j.cond.Broadcast()
	}
	j.mu.Unlock()
	j.cancel()
	j.notifyTerminal()
}

// notifyTerminal fires the manager's cleanup hook exactly once, with no
// job lock held, but only once the job is actually terminal.
func (j *Job) notifyTerminal() {
	if !j.currentState().terminal() {
		return
	}
	j.notifyOnce.Do(func() {
		if j.notify != nil {
			j.notify()
		}
	})
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the state observed.
func (j *Job) Wait(ctx context.Context) (jobState, error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.state.terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if err := ctx.Err(); err != nil && !j.state.terminal() {
		return j.state, err
	}
	return j.state, nil
}

// Stream calls fn for every partial result — replaying already committed
// ones first, then delivering new ones as keyblocks commit — and returns
// the job's terminal state once the job finishes and the log is drained.
// The error reports stream transport problems only: non-nil when fn
// failed or ctx was done. A drained failed or cancelled job returns a
// nil error; the job's own terminal error stays on Err, so callers can
// still emit a terminal event after a clean drain.
func (j *Job) Stream(ctx context.Context, fn func(sidr.PartialResult) error) (jobState, error) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	i := 0
	for {
		j.mu.Lock()
		for i >= len(j.partials) && !j.state.terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		if err := ctx.Err(); err != nil {
			st := j.state
			j.mu.Unlock()
			return st, err
		}
		if i < len(j.partials) {
			pr := j.partials[i]
			i++
			j.mu.Unlock()
			if err := fn(pr); err != nil {
				return j.currentState(), err
			}
			continue
		}
		st := j.state
		j.mu.Unlock()
		return st, nil
	}
}

// addPartial appends one committed keyblock, wakes subscribers, and
// forwards the partial to every attached collapse follower. The lock
// order is strictly leader→follower (followers never lock their leader),
// and forwarding happens under the leader's lock so a follower can never
// observe the terminal state before its last partial — every subscriber
// sees the complete partial sequence.
func (j *Job) addPartial(pr sidr.PartialResult) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.partials = append(j.partials, pr)
	for _, f := range j.followers {
		f.addPartial(pr)
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// log returns the partial sequence committed so far, capacity-clipped so
// no later append could write through the slice execute gives the result.
func (j *Job) log() []sidr.PartialResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.partials[:len(j.partials):len(j.partials)]
}

// attach registers f as a collapse follower: already-committed partials
// are replayed into f's log, then live ones arrive via addPartial and
// the leader's terminal state propagates on finish. It reports false
// when the leader is already terminal (the caller should execute or
// serve from the result cache instead). Callers must not attach a job to
// itself or build follower chains; the manager only attaches fresh jobs
// to in-flight leaders.
func (j *Job) attach(f *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	f.mu.Lock()
	f.follower = true
	f.collapsedInto = j.ID
	f.state = stateRunning // being served by the leader's execution
	f.started = time.Now()
	f.partials = append(f.partials, j.partials...)
	f.cond.Broadcast()
	f.mu.Unlock()
	j.followers = append(j.followers, f)
	return true
}

// start transitions queued→running; false means the job was already
// cancelled and must not run.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	j.started = time.Now()
	j.cond.Broadcast()
	return true
}

// finish records the terminal state, wakes all waiters, and propagates
// the outcome to attached collapse followers. Followers terminalise
// under the leader's lock — after the last forwarded partial, never
// before it — while the manager-facing notify hooks run afterwards with
// no lock held.
func (j *Job) finish(state jobState, res *sidr.Result, err error) {
	j.mu.Lock()
	var fws []*Job
	if !j.state.terminal() {
		j.state = state
		j.result = res
		j.err = err
		j.finished = time.Now()
		fws = j.followers
		j.followers = nil
		for _, f := range fws {
			f.deliverTerminal(state, res, err)
		}
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	j.notifyTerminal()
	for _, f := range fws {
		f.notifyTerminal()
	}
}

// deliverTerminal is a follower's share of its leader's finish: record
// the state and wake waiters. A follower its subscriber already
// cancelled stays cancelled. The manager notify hook is NOT fired here —
// the leader fires it lock-free after unwinding.
func (j *Job) deliverTerminal(state jobState, res *sidr.Result, err error) {
	j.mu.Lock()
	if !j.state.terminal() {
		j.state = state
		j.result = res
		j.err = err
		j.finished = time.Now()
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	j.cancel()
}

func (j *Job) setSkew(s *skew.Summary) {
	j.mu.Lock()
	j.skewStats = s
	j.mu.Unlock()
}
