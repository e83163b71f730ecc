package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"sidr/internal/core"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
)

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a worker may go without a heartbeat
	// before it is evicted (default 5s).
	HeartbeatTimeout time.Duration
	// RetryBase and RetryMax bound the exponential backoff between
	// retries (defaults 25ms and 1s); actual sleeps are jittered.
	RetryBase time.Duration
	RetryMax  time.Duration
	// SpillReplicas is ignored.
	//
	// Deprecated: spills are not replicated; a lost spill is recovered by
	// re-executing its split. The field stays only because the benchmark
	// harness (bench/cluster.go) still sets it.
	SpillReplicas int
	// Metrics receives the sidrd_cluster_* / sidrd_shuffle_* instruments
	// (default: a private registry).
	Metrics *metrics.Registry
	// Client performs dispatch and shuffle requests. When unset, dispatch
	// uses a plain client (a Map response's headers arrive only after the
	// Map finishes executing, so no response-header timeout applies;
	// per-request contexts bound lifetimes) and shuffle fetches use a
	// pooled keep-alive transport sized for reduce fan-in (newTransport).
	// When set, it is used for both — chaos/fault-injection tests wrap
	// one transport and must intercept every request.
	Client *http.Client
	// Logf, when set, receives coordinator lifecycle logging.
	Logf func(format string, args ...any)

	// Speculation enables backup attempts for straggling Map dispatches:
	// when a running attempt's age exceeds SpeculationFactor × the median
	// completed attempt duration (and at least SpeculationMin), and an
	// unsatisfied keyblock depends on its split, a backup attempt is
	// launched on a different worker. First completion wins; the loser is
	// cancelled and its spills released. I_ℓ makes this targeted: splits
	// no open keyblock needs are never speculated on.
	Speculation bool
	// SpeculationFactor is the straggler multiple (default 3).
	SpeculationFactor float64
	// SpeculationMin floors the straggler threshold (default 500ms) so
	// tiny jobs don't speculate on scheduling noise.
	SpeculationMin time.Duration
	// SpeculationInterval is the straggler scan period (default 100ms).
	SpeculationInterval time.Duration
}

// Worker health scoring: healthAlpha is the EWMA weight of the newest
// dispatch/fetch/probe outcome in a worker's fail score; a worker whose
// score exceeds quarantineThreshold is quarantined and one whose score
// decays below reinstateThreshold is reinstated. The gap is the
// hysteresis that stops a borderline worker from flapping.
const (
	healthAlpha         = 0.3
	quarantineThreshold = 0.5
	reinstateThreshold  = 0.25
)

// Coordinator owns the worker table and drives clustered jobs: it
// dispatches Map task attempts to workers over HTTP, tracks their
// spills, and runs Reduce tasks that fetch exactly their I_ℓ dependency
// set from the workers' shuffle endpoints.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	// shuffleClient performs shuffle fetches. Separate from the dispatch client so shuffle gets pooled
	// keep-alive connections and a response-header timeout without
	// imposing either on long-running Map dispatches.
	shuffleClient *http.Client

	// baseCtx bounds background work that outlives any single job —
	// release broadcasts and quarantine probes. Close cancels it and
	// joins the tracked goroutines.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	releases   sync.WaitGroup

	mu      sync.Mutex
	workers map[string]*workerState
	jobSeq  int64
	// active indexes in-flight clustered jobs by ID so drain watchers
	// can find the attempts a draining worker still hosts.
	active map[string]*clusterJob

	rngMu sync.Mutex
	rng   *rand.Rand

	mWorkersAlive   *metrics.Gauge
	mQuarantinedG   *metrics.Gauge
	mDispatched     *metrics.Counter
	mRetried        *metrics.Counter
	mReexecuted     *metrics.Counter
	mShuffleBytes   *metrics.Counter
	mConnections    *metrics.Counter
	mShuffleReqs    *metrics.Counter
	mBatchFallbacks *metrics.Counter
	mShuffleDials   *metrics.Counter
	mFetchSeconds   *metrics.Histogram
	mSpecLaunched   *metrics.Counter
	mSpecWins       *metrics.Counter
	mSpecCancelled  *metrics.Counter
	mSpillsCorrupt  *metrics.Counter
	mQuarantines    *metrics.Counter
	mReinstates     *metrics.Counter
	mDrainingG      *metrics.Gauge
	mDispatchLocal  *metrics.Counter
	mDispatchRemote *metrics.Counter

	// onMapResult is a test hook observing accepted Map results.
	onMapResult func(jobID string, split int, worker string)
}

// workerState is the coordinator's record of one worker. failScore and
// quarantined survive eviction and re-registration on purpose: a worker
// that keeps failing is remembered by name, not by connection.
type workerState struct {
	name        string
	url         string
	node        string // locality identity; split host lists match it
	lastSeen    time.Time
	evicted     bool
	running     int
	mapsDone    int64
	failScore   float64
	quarantined bool
	// draining workers accept no new dispatches but keep serving spills;
	// drain is membership state, never health evidence, so a draining
	// worker's fail score stays untouched. drained marks a drain that
	// completed — the worker was released cleanly, not lost.
	draining bool
	drained  bool
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	userClient := cfg.Client
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.SpeculationFactor <= 0 {
		cfg.SpeculationFactor = 3
	}
	if cfg.SpeculationMin <= 0 {
		cfg.SpeculationMin = 500 * time.Millisecond
	}
	if cfg.SpeculationInterval <= 0 {
		cfg.SpeculationInterval = 100 * time.Millisecond
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		client:     cfg.Client,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		workers:    make(map[string]*workerState),
		active:     make(map[string]*clusterJob),
		// Jitter only desynchronises retries, so a fixed seed is harmless.
		rng: rand.New(rand.NewSource(0)),

		mWorkersAlive:   cfg.Metrics.Gauge("sidrd_cluster_workers_alive"),
		mQuarantinedG:   cfg.Metrics.Gauge("sidrd_cluster_workers_quarantined"),
		mDispatched:     cfg.Metrics.Counter("sidrd_cluster_tasks_dispatched_total"),
		mRetried:        cfg.Metrics.Counter("sidrd_cluster_tasks_retried_total"),
		mReexecuted:     cfg.Metrics.Counter("sidrd_cluster_reexecuted_total"),
		mShuffleBytes:   cfg.Metrics.Counter("sidrd_shuffle_bytes_total"),
		mConnections:    cfg.Metrics.Counter("sidrd_shuffle_connections_total"),
		mShuffleReqs:    cfg.Metrics.Counter("sidrd_shuffle_requests_total"),
		mBatchFallbacks: cfg.Metrics.Counter("sidrd_shuffle_batch_fallbacks_total"),
		mShuffleDials:   cfg.Metrics.Counter("sidrd_shuffle_dials_total"),
		mFetchSeconds: cfg.Metrics.Histogram("sidrd_shuffle_fetch_seconds",
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		mSpecLaunched:  cfg.Metrics.Counter("sidrd_cluster_speculative_launched_total"),
		mSpecWins:      cfg.Metrics.Counter("sidrd_cluster_speculative_wins_total"),
		mSpecCancelled: cfg.Metrics.Counter("sidrd_cluster_speculative_cancelled_total"),
		mSpillsCorrupt: cfg.Metrics.Counter("sidrd_cluster_spills_corrupt_total"),
		mQuarantines:   cfg.Metrics.Counter("sidrd_cluster_quarantines_total"),
		mReinstates:    cfg.Metrics.Counter("sidrd_cluster_reinstates_total"),

		mDrainingG:      cfg.Metrics.Gauge("sidrd_cluster_workers_draining"),
		mDispatchLocal:  cfg.Metrics.Counter("sidrd_cluster_dispatch_local_total"),
		mDispatchRemote: cfg.Metrics.Counter("sidrd_cluster_dispatch_remote_total"),
	}
	if userClient != nil {
		c.shuffleClient = userClient
	} else {
		c.shuffleClient = &http.Client{Transport: NewTransportWithStats(0, 0, c.mShuffleDials)}
	}
	return c
}

// Close cancels the coordinator's background work — in-flight release
// broadcasts and attempt releases are cut short and their goroutines
// joined — so a shutting-down daemon cannot leak them.
func (c *Coordinator) Close() {
	c.baseCancel()
	c.releases.Wait()
}

// Start runs the eviction reaper until ctx is done, so workers_alive
// drops even while no job is picking workers. Each tick also probes
// quarantined workers so recovery does not depend on a job happening
// to dispatch to them.
func (c *Coordinator) Start(ctx context.Context) {
	t := time.NewTicker(c.cfg.HeartbeatTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			c.mu.Lock()
			c.pruneLocked(now)
			c.mu.Unlock()
			c.probeQuarantined(ctx)
		}
	}
}

// probeQuarantined health-checks every quarantined live worker and
// feeds the result into its fail score: successful probes decay the
// score toward reinstatement, failures keep it quarantined.
func (c *Coordinator) probeQuarantined(ctx context.Context) {
	type target struct{ name, url string }
	c.mu.Lock()
	var ts []target
	for _, w := range c.workers {
		if w.quarantined && !w.evicted {
			ts = append(ts, target{w.name, w.url})
		}
	}
	c.mu.Unlock()
	for _, t := range ts {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		ok := false
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, t.url+"/healthz", nil)
		if err == nil {
			if resp, err := c.client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		c.noteOutcome(t.name, !ok)
	}
}

// noteOutcome feeds one dispatch/fetch/probe outcome into a worker's
// EWMA fail score and applies the quarantine hysteresis. Draining
// workers are exempt: a drain is orderly membership change, and the
// turbulence it causes (refused dispatches, fetches racing the exit)
// must never quarantine the worker or poison its score for a future
// re-registration.
func (c *Coordinator) noteOutcome(name string, failed bool) {
	if name == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil || w.draining {
		return
	}
	x := 0.0
	if failed {
		x = 1.0
	}
	w.failScore = healthAlpha*x + (1-healthAlpha)*w.failScore
	switch {
	case !w.quarantined && w.failScore > quarantineThreshold:
		w.quarantined = true
		c.mQuarantines.Inc()
		c.logf("worker %q quarantined (fail score %.2f)", name, w.failScore)
	case w.quarantined && w.failScore < reinstateThreshold:
		w.quarantined = false
		c.mReinstates.Inc()
		c.logf("worker %q reinstated (fail score %.2f)", name, w.failScore)
	}
	c.quarantineGaugeLocked()
}

// quarantineGaugeLocked refreshes the quarantined-workers gauge.
// Caller holds c.mu.
func (c *Coordinator) quarantineGaugeLocked() {
	n := int64(0)
	for _, w := range c.workers {
		if w.quarantined && !w.evicted {
			n++
		}
	}
	c.mQuarantinedG.Set(n)
}

// registerNode adds (or revives) a worker, recording the namespace node
// it claims co-location with. Registration may happen mid-job: the next
// pickWorker sees the new worker immediately. Re-registering a drained
// or evicted name revives it with a clean membership state (health
// score survives by design).
func (c *Coordinator) registerNode(name, url, node string) error {
	if name == "" || url == "" {
		return fmt.Errorf("cluster: register needs name and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil {
		w = &workerState{name: name}
		c.workers[name] = w
	}
	w.url = strings.TrimSuffix(url, "/")
	if node != "" {
		w.node = node
	}
	w.lastSeen = time.Now()
	w.evicted = false
	w.draining = false
	w.drained = false
	c.pruneLocked(time.Now())
	c.logf("worker %q registered at %s (node %q)", name, w.url, w.node)
	return nil
}

// Heartbeat refreshes a worker's deadline. ok=false means the worker
// should stop heartbeating under this registration: with draining=true
// it was drained and released (exit, don't rejoin), otherwise it is
// unknown and should re-register. draining with ok=true tells the
// worker the coordinator wants it to drain.
func (c *Coordinator) heartbeat(name string) (ok, draining bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	if w == nil || w.evicted {
		// A coordinator-initiated drain of an idle worker can complete
		// before the worker's next heartbeat ever carries the draining
		// flag. Answer "drained, exit" — a plain unknown here would make
		// the worker re-register and silently undo the drain.
		if w != nil && w.drained {
			return false, true
		}
		return false, false
	}
	w.lastSeen = time.Now()
	c.pruneLocked(time.Now())
	return true, w.draining
}

// Workers lists the worker table, alive first then by name.
func (c *Coordinator) workerTable() []workerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	out := make([]workerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, workerInfo{
			Name:        w.name,
			URL:         w.url,
			Node:        w.node,
			Alive:       !w.evicted,
			Running:     w.running,
			MapsDone:    w.mapsDone,
			LastSeenS:   now.Sub(w.lastSeen).Seconds(),
			FailScore:   w.failScore,
			Quarantined: w.quarantined,
			Draining:    w.draining,
			Drained:     w.drained,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alive != out[j].Alive {
			return out[i].Alive
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AliveWorkers returns how many workers are currently live.
func (c *Coordinator) AliveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(time.Now())
	n := 0
	for _, w := range c.workers {
		if !w.evicted {
			n++
		}
	}
	return n
}

// pruneLocked applies deadline-based eviction and refreshes the
// workers_alive gauge. Caller holds c.mu.
func (c *Coordinator) pruneLocked(now time.Time) {
	alive := int64(0)
	for _, w := range c.workers {
		if !w.evicted && now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			w.evicted = true
			c.logf("worker %q evicted: no heartbeat for %s", w.name, now.Sub(w.lastSeen).Round(time.Millisecond))
		}
		if !w.evicted {
			alive++
		}
	}
	c.mWorkersAlive.Set(alive)
	c.quarantineGaugeLocked()
	c.drainGaugeLocked()
}

// drainGaugeLocked refreshes the draining-workers gauge. Caller holds
// c.mu.
func (c *Coordinator) drainGaugeLocked() {
	n := int64(0)
	for _, w := range c.workers {
		if w.draining && !w.evicted {
			n++
		}
	}
	c.mDrainingG.Set(n)
}

// markDead evicts a worker on direct evidence (connection failure,
// lost spill) without waiting for the heartbeat deadline.
func (c *Coordinator) markDead(name string) {
	if name == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[name]; w != nil && !w.evicted {
		w.evicted = true
		c.logf("worker %q marked dead", name)
	}
	c.pruneLocked(time.Now())
}

// pickWorker chooses a live worker for a Map task, preferring the
// split's block-location hosts — node-local beats any remote worker,
// then least running tasks, then name. not lists worker names to avoid
// (prior failed attempts of the same dispatch, or a speculation
// primary's host). Quarantined workers are a last resort before
// excluded ones: healthy∧allowed, then quarantined∧allowed, then any
// live worker. Draining workers are never picked in any tier: drain
// means no new work, full stop. local reports whether the pick matched
// a host hint; the dispatch_{local,remote} metrics advance only for
// splits that carry hints at all.
func (c *Coordinator) pickWorker(hosts []string, not map[string]bool) (name, url string, local bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(time.Now())
	isLocal := func(w *workerState) bool {
		for _, h := range hosts {
			if h == w.node || h == w.name {
				return true
			}
		}
		return false
	}
	pick := func(allow func(*workerState) bool) (*workerState, bool) {
		var best *workerState
		bestLocal := false
		for _, w := range c.workers {
			if w.evicted || w.draining || !allow(w) {
				continue
			}
			local := isLocal(w)
			switch {
			case best == nil,
				local && !bestLocal,
				local == bestLocal && w.running < best.running,
				local == bestLocal && w.running == best.running && w.name < best.name:
				best, bestLocal = w, local
			}
		}
		return best, bestLocal
	}
	best, bestLocal := pick(func(w *workerState) bool { return !w.quarantined && !not[w.name] })
	if best == nil {
		best, bestLocal = pick(func(w *workerState) bool { return !not[w.name] })
	}
	if best == nil {
		best, bestLocal = pick(func(w *workerState) bool { return true })
	}
	if best == nil {
		return "", "", false, ErrNoWorkers
	}
	best.running++
	if len(hosts) > 0 {
		if bestLocal {
			c.mDispatchLocal.Inc()
		} else {
			c.mDispatchRemote.Inc()
		}
	}
	return best.name, best.url, bestLocal, nil
}

// workerURL resolves a worker name to its last-registered base URL.
func (c *Coordinator) workerURL(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[name]; w != nil {
		return w.url
	}
	return ""
}

// releaseWorker undoes pickWorker's running increment, crediting done
// maps on success.
func (c *Coordinator) releaseWorker(name string, mapDone bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[name]; w != nil {
		w.running--
		if mapDone {
			w.mapsDone++
		}
	}
}

// backoff returns the jittered exponential delay before retry n (0-based):
// base·2ⁿ capped at RetryMax, then uniformly jittered in [d/2, d).
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.cfg.RetryBase << uint(n)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	return d/2 + j
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Mount registers the coordinator's HTTP endpoints on mux:
// POST /v1/cluster/register, POST /v1/cluster/heartbeat,
// GET /v1/cluster/workers, POST /v1/drain.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/register", func(rw http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.registerNode(req.Name, req.URL, req.Node); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(rw http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		ok, draining := c.heartbeat(req.Name)
		if !ok {
			if draining {
				http.Error(rw, "drained; exit", http.StatusGone)
			} else {
				http.Error(rw, "unknown worker; re-register", http.StatusNotFound)
			}
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(heartbeatResponse{Draining: draining})
	})
	mux.HandleFunc("POST /v1/drain", func(rw http.ResponseWriter, r *http.Request) {
		var req drainRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.drain(req.Name); err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(struct {
			Workers []workerInfo `json:"workers"`
		}{c.workerTable()})
	})
}

// JobSpec describes one clustered job.
type JobSpec struct {
	// ID names the job on the wire and in spill paths; empty generates
	// one.
	ID string
	// Plan is the plan-defining tuple workers re-derive the plan from.
	// RunPlan fills it in from the plan it is handed.
	Plan JobPlan
	// Dataset tells workers how to open the input.
	Dataset DatasetSpec
	// Dataset2 is a join's side-B dataset; nil for single-input jobs.
	// The plan tuple must then carry the join query and its Retile.
	Dataset2 *DatasetSpec
	// Exec runs the job's task graph (required). Reduce tasks outrank
	// queued Map dispatch on it, preserving reduce-first scheduling.
	Exec *exec.Executor
	// Workers caps the job's concurrently running tasks (0 = pool bound).
	Workers int
	// Weight is the job's weighted-fair share of the shared executor
	// (default 1): tenant-weighted scheduling carried down to the task
	// dispatch level.
	Weight int
	// OnPartial receives each keyblock's output the moment it commits.
	// Callbacks may arrive concurrently.
	OnPartial func(ReduceResult)
}

// ReduceResult is one finalized keyblock output — the in-process
// engine's type, produced by the job loop's one Reduce task body.
type ReduceResult = mapreduce.ReduceOutput

// Counters aggregates one job's bookkeeping.
type Counters struct {
	// MapsDispatched counts Map attempt dispatches sent to workers.
	MapsDispatched int64
	// Retried counts dispatches that failed and were re-sent elsewhere.
	Retried int64
	// Reexecuted counts Map tasks re-executed because their spills were
	// lost with a worker.
	Reexecuted int64
	// Connections counts spills successfully fetched — Σ_ℓ |I_ℓ| on the
	// happy path (Fig. 6 / Table 3). This is the logical per-spill count:
	// a request carrying n spills counts n connections, keeping the
	// paper's accounting independent of the transport.
	Connections int64
	// ShuffleRequests counts successful shuffle HTTP requests: one per
	// (reduce, worker) pair on the happy path, plus one per spill
	// re-fetched singly after a failure — so ShuffleRequests <
	// Connections whenever batching collapsed anything.
	ShuffleRequests int64
	// BatchFallbacks counts multi-spill requests that failed (validation
	// failure, transport error, missing spill) and whose spills were
	// re-fetched singly under the retry policy.
	BatchFallbacks int64
	// ShuffleBytes counts bytes received by successful shuffle requests.
	ShuffleBytes int64
	// Records counts source records read by accepted Map attempts.
	Records int64
	// Speculated counts backup attempts launched for straggling Maps.
	Speculated int64
	// SpeculativeWins counts Map tasks whose backup attempt finished
	// before the straggling primary.
	SpeculativeWins int64
	// CorruptSpills counts shuffle fetches rejected by the spill payload
	// checksum; each one re-executed its source split.
	CorruptSpills int64
	// ReplicaPushes and ReplicaBytes are always 0.
	//
	// Deprecated: spills are not replicated. The fields stay only because
	// the benchmark harness (bench/cluster.go) still reads them.
	ReplicaPushes int64
	ReplicaBytes  int64
	// DispatchLocal and DispatchRemote count Map dispatches of splits
	// that carried block-location hints, split by whether the pick
	// matched one (node-local placement) or fell back to a remote
	// worker.
	DispatchLocal  int64
	DispatchRemote int64
}

// jobResult is a completed clustered job.
type jobResult struct {
	// Loop is the job loop's own result — outputs, commit events,
	// counters — exactly what an in-process run of the plan returns.
	Loop *mapreduce.Result
	// Outputs (= Loop.Outputs) holds every keyblock's finalized output,
	// indexed by keyblock.
	Outputs []ReduceResult
	// Plan is the coordinator-side plan the job ran under.
	Plan     *core.Plan
	Counters Counters
}

// clusterJob is the remote mapreduce.Runner of one Run: it carries out
// the Map and fetch tasks the job loop hands it — dispatching Map attempts
// to workers (with retry and speculation) and fetching
// spills back under the shuffle's failure policy (fetch.go). When a
// Reduce may run, what a lost spill re-opens and whether a keyblock may
// commit are the loop's decisions, not made here.
type clusterJob struct {
	c    *Coordinator
	spec JobSpec
	plan *core.Plan
	// loop is the job loop driving this runner; the runner only ever asks
	// it whether a split's output is still needed.
	loop *mapreduce.Job
	// ctx bounds the runner's background work — speculation and backup
	// dispatches. Run cancels it once the loop has returned.
	ctx context.Context

	// specWG tracks the speculation monitor and backup dispatch
	// goroutines, which run outside the executor handle on purpose: a
	// backup submitted through the handle could queue behind the very
	// hung dispatches it exists to overtake. Run joins them before
	// releasing worker state.
	specWG sync.WaitGroup

	mu        sync.Mutex
	maps      []mapTask
	durations []time.Duration // completed Map attempt durations (speculation median)
	counters  Counters
}

// hosted says where one committed Map attempt's output lives: it is the
// reference the job loop holds for the split and hands back to Fetch.
type hosted struct {
	split, attempt int
	records        int64
	// outputs is the attempt's per-keyblock spill metadata (size, pair
	// count, kv-count annotation), reported by the worker at Map time; it
	// covers every keyblock in SplitToKB[split] (recordMapResult rejects
	// a response that does not). Shuffle fetches validate every received
	// frame against it.
	outputs map[int]keyblockMeta
	// worker names the one worker holding the attempt's pack, and url
	// where it is fetched from.
	worker, url string
}

// mapTask tracks one Map task's current attempt (plus, under
// speculation, one in-flight backup attempt). The zero value is a valid
// fresh task: attempt 0, no backup, IDs allocated lazily.
type mapTask struct {
	attempt int     // current primary attempt ID
	out     *hosted // the winning attempt's output; nil while none has completed

	next        int                        // next attempt ID to allocate (see allocAttempt)
	started     time.Time                  // when the current primary dispatch began running
	dispWorker  string                     // worker the primary dispatch is posted to (in flight)
	hasSpec     bool                       // a backup attempt is in flight
	specAttempt int                        // backup attempt ID (hasSpec only)
	specWorker  string                     // worker the backup is posted to
	cancels     map[int]context.CancelFunc // per-attempt dispatch cancellation
}

// allocAttempt hands out the next unused attempt ID. Lazy so that
// zero-valued mapTasks (attempt 0 implicitly allocated) stay correct.
func (m *mapTask) allocAttempt() int {
	if m.next <= m.attempt {
		m.next = m.attempt + 1
	}
	if m.hasSpec && m.next <= m.specAttempt {
		m.next = m.specAttempt + 1
	}
	a := m.next
	m.next++
	return a
}

// validAttempt reports whether an attempt ID is one of the task's live
// attempts (current primary or in-flight backup).
func (m *mapTask) validAttempt(a int) bool {
	return a == m.attempt || (m.hasSpec && a == m.specAttempt)
}

// Run executes a clustered job from its tuple alone — it derives the plan
// the way a worker does, then runs it; see RunPlan.
func (c *Coordinator) Run(ctx context.Context, spec JobSpec) (*jobResult, error) {
	plan, err := spec.Plan.newPlan()
	if err != nil {
		return nil, err
	}
	return c.RunPlan(ctx, plan, spec)
}

// RunPlan executes a derived plan as a clustered job and blocks until it
// completes or fails. The tuple the workers re-derive the plan from is
// read off plan (spec.Plan is overwritten); block locations on its splits
// steer placement and never reach a worker. The plan runs on the same job
// loop as an in-process run (mapreduce.Job); this runner executes its Map
// tasks on workers (locality first) and serves its Reduce tasks — which
// run here, in the coordinator — by fetching exactly the spills they are
// handed from the workers' shuffle endpoints.
func (c *Coordinator) RunPlan(ctx context.Context, plan *core.Plan, spec JobSpec) (*jobResult, error) {
	if spec.Exec == nil {
		return nil, fmt.Errorf("cluster: job needs an executor")
	}
	if spec.ID == "" {
		c.mu.Lock()
		c.jobSeq++
		spec.ID = fmt.Sprintf("job-%d", c.jobSeq)
		c.mu.Unlock()
	}
	if !validJobID(spec.ID) {
		return nil, fmt.Errorf("cluster: invalid job id %q", spec.ID)
	}
	if c.AliveWorkers() == 0 {
		return nil, ErrNoWorkers
	}
	spec.Plan = planTuple(plan)

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &clusterJob{c: c, spec: spec, plan: plan, ctx: jctx, maps: make([]mapTask, len(plan.Splits))}
	cfg := plan.JobConfig(nil, nil)
	cfg.Runner, cfg.Ctx = j, jctx
	cfg.Exec, cfg.Workers, cfg.Weight = spec.Exec, spec.Workers, spec.Weight
	cfg.OnReduceOutput = spec.OnPartial
	var err error
	if j.loop, err = mapreduce.NewJob(cfg); err != nil {
		return nil, err
	}

	// Index the job for drain watchers (they scan hosted attempts).
	c.mu.Lock()
	c.active[spec.ID] = j
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.active, spec.ID)
		c.mu.Unlock()
	}()

	// Straggler monitor: scans running Map dispatches and launches
	// backup attempts for the ones an uncommitted keyblock is waiting on.
	if c.cfg.Speculation {
		j.specWG.Add(1)
		go func() {
			defer j.specWG.Done()
			j.speculationLoop()
		}()
	}

	res, err := j.loop.Run()

	// The job is resolved either way: abort backup dispatches, join the
	// speculation goroutines, then release worker-side state (cached
	// plan/dataset and spills) before handing the result back.
	cancel()
	j.specWG.Wait()
	c.releaseJob(spec.ID)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return &jobResult{Loop: res, Outputs: res.Outputs, Plan: plan, Counters: j.counters}, nil
}

// releaseJob tells every live worker to drop one job's cached state and
// delete its spills. Best-effort with a short deadline derived from the
// coordinator's lifetime — Close cancels in-flight broadcasts instead
// of leaking goroutines for up to the timeout. A worker that misses the
// release still replaces the stale entry on the next job's fingerprint
// mismatch (see Worker.jobFor).
func (c *Coordinator) releaseJob(jobID string) {
	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.evicted {
			urls = append(urls, w.url)
		}
	}
	c.mu.Unlock()
	if len(urls) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		c.releases.Add(1)
		go func(u string) {
			defer wg.Done()
			defer c.releases.Done()
			c.postRelease(ctx, u, releaseRequest{JobID: jobID})
		}(u)
	}
	wg.Wait()
}

// releaseAttempt asks one worker to drop a single superseded attempt's
// spills (a cancelled speculation loser, or a straggler that lost the
// race). Fire-and-forget: the job-resolution release sweeps anything
// this misses.
func (c *Coordinator) releaseAttempt(baseURL, jobID string, split, attempt int) {
	if baseURL == "" {
		return
	}
	c.releases.Add(1)
	go func() {
		defer c.releases.Done()
		ctx, cancel := context.WithTimeout(c.baseCtx, 2*time.Second)
		defer cancel()
		c.postRelease(ctx, baseURL, releaseRequest{JobID: jobID, Split: &split, Attempt: &attempt})
	}()
}

func (c *Coordinator) postRelease(ctx context.Context, baseURL string, rr releaseRequest) {
	body, err := json.Marshal(rr)
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/release", strings.NewReader(string(body)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// RunMap executes Map task i on a worker and returns where its output is
// hosted. One call yields one result whichever attempt produced it: the
// primary dispatched here or a backup the straggler monitor launched
// meanwhile. A call for a task that already has an output is a
// re-execution — the job loop declared that output lost — under a fresh
// attempt ID, so a late result or a leftover spill of the old attempt can
// never be mistaken for the new one.
func (j *clusterJob) RunMap(ctx context.Context, i int) (mapreduce.MapResult, error) {
	c := j.c
	j.mu.Lock()
	m := &j.maps[i]
	if m.out != nil {
		m.attempt = m.allocAttempt()
		m.out = nil
		m.started = time.Time{}
		j.counters.Reexecuted++
		c.mReexecuted.Inc()
		c.logf("re-executing map %s/%d as attempt %d", j.spec.ID, i, m.attempt)
	}
	attempt := m.attempt
	j.mu.Unlock()

	if err := j.dispatchAttempt(ctx, i, attempt, make(map[string]bool), false); err != nil {
		return mapreduce.MapResult{}, err
	}
	j.mu.Lock()
	out := j.maps[i].out
	j.mu.Unlock()
	if out == nil {
		// This runs on an executor worker, where a nil dereference would
		// take the whole process down: fail the job instead.
		return mapreduce.MapResult{}, fmt.Errorf("map task %d: dispatch ended without a result", i)
	}
	res := mapreduce.MapResult{Ref: out, Records: out.records}
	for _, o := range out.outputs {
		res.Pairs += int64(o.Pairs)
		res.Bytes += o.Bytes
	}
	return res, nil
}

// speculationLoop periodically scans for straggling Map dispatches
// until the job resolves.
func (j *clusterJob) speculationLoop() {
	t := time.NewTicker(j.c.cfg.SpeculationInterval)
	defer t.Stop()
	for {
		select {
		case <-j.ctx.Done():
			return
		case <-t.C:
			j.scanStragglers()
		}
	}
}

// scanStragglers launches a backup attempt for every running primary
// dispatch older than SpeculationFactor × the median completed attempt
// duration, provided an uncommitted keyblock depends on its split and
// no backup is already in flight. Backups avoid the primary's worker
// and run in direct goroutines (not through the executor handle), so a
// pool saturated with hung dispatches cannot starve its own rescue.
func (j *clusterJob) scanStragglers() {
	c := j.c
	now := time.Now()
	j.mu.Lock()
	if len(j.durations) == 0 {
		j.mu.Unlock()
		return // no baseline yet: the first completions define "normal"
	}
	threshold := time.Duration(float64(medianDuration(j.durations)) * c.cfg.SpeculationFactor)
	if threshold < c.cfg.SpeculationMin {
		threshold = c.cfg.SpeculationMin
	}
	type launch struct {
		split, attempt int
		avoid          string
	}
	var launches []launch
	for i := range j.maps {
		m := &j.maps[i]
		if m.out != nil || m.hasSpec || m.started.IsZero() || now.Sub(m.started) < threshold || !j.loop.Needed(i) {
			continue
		}
		m.hasSpec = true
		m.specAttempt = m.allocAttempt()
		m.specWorker = ""
		j.counters.Speculated++
		launches = append(launches, launch{split: i, attempt: m.specAttempt, avoid: m.dispWorker})
	}
	j.mu.Unlock()
	for _, sp := range launches {
		c.mSpecLaunched.Inc()
		c.logf("speculating map %s/%d as backup attempt %d (primary straggling)", j.spec.ID, sp.split, sp.attempt)
		avoid := make(map[string]bool)
		if sp.avoid != "" {
			avoid[sp.avoid] = true
		}
		j.specWG.Add(1)
		go func(sp launch, avoid map[string]bool) {
			defer j.specWG.Done()
			j.dispatchAttempt(j.ctx, sp.split, sp.attempt, avoid, true)
		}(sp, avoid)
	}
}

// medianDuration returns the median of ds (upper median for even n).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// dispatchAttempt sends one attempt of map task i to a worker, retrying
// on other workers (with backoff) when dispatch fails. Connection-level
// failures mark the worker dead (its spills are unreachable too);
// application-level failures only feed its fail score — the worker
// stays alive, its hosted spills stay valid, and repetition quarantines
// it. Each try runs under a per-attempt context so a speculation winner
// can cancel the loser's in-flight dispatch without touching the job.
// It returns nil once the task has a result — this attempt's, or the
// rival's that cancelled it — and for a backup that was withdrawn; an
// error means the primary could not be placed or ctx ended.
func (j *clusterJob) dispatchAttempt(ctx context.Context, i, attempt int, tried map[string]bool, speculative bool) error {
	c := j.c
	j.mu.Lock()
	m := &j.maps[i]
	if m.out != nil || !m.validAttempt(attempt) {
		j.mu.Unlock()
		return nil // stale or already satisfied
	}
	if !speculative {
		m.started = time.Now()
	}
	j.mu.Unlock()

	hosts := j.plan.Splits[i].Hosts
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		name, url, local, err := c.pickWorker(hosts, tried)
		if err != nil {
			if speculative {
				// No worker to run the backup on: withdraw it quietly and
				// let a later scan retry once the cluster changes.
				j.clearSpec(i, attempt)
				return nil
			}
			return fmt.Errorf("map task %d: %w", i, err)
		}
		if len(hosts) > 0 {
			j.mu.Lock()
			if local {
				j.counters.DispatchLocal++
			} else {
				j.counters.DispatchRemote++
			}
			j.mu.Unlock()
		}

		// Register the in-flight dispatch: per-attempt context (so the
		// losing side of a speculation race is cancellable) and the
		// worker it targets (so backups avoid it and stragglers name it).
		actx, acancel := context.WithCancel(ctx)
		j.mu.Lock()
		m = &j.maps[i]
		if m.out != nil || !m.validAttempt(attempt) {
			j.mu.Unlock()
			acancel()
			c.releaseWorker(name, false)
			return nil
		}
		if m.cancels == nil {
			m.cancels = make(map[int]context.CancelFunc)
		}
		m.cancels[attempt] = acancel
		if speculative {
			m.specWorker = name
		} else {
			m.dispWorker = name
		}
		j.mu.Unlock()

		start := time.Now()
		resp, err := j.postMap(actx, url, i, attempt)
		// Capture whether the attempt itself was cancelled before we
		// release its context below.
		lostRace := actx.Err() != nil && ctx.Err() == nil
		j.mu.Lock()
		if j.maps[i].cancels[attempt] != nil {
			delete(j.maps[i].cancels, attempt)
		}
		j.mu.Unlock()
		acancel()

		if err == nil {
			if c.onMapResult != nil {
				c.onMapResult(j.spec.ID, i, name)
			}
			err = j.recordMapResult(i, attempt, name, url, start, resp)
		}
		c.releaseWorker(name, err == nil)
		if err == nil {
			c.noteOutcome(name, false)
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if lostRace {
			// Only this attempt was cancelled: it lost a speculation race.
			// Not the worker's fault — no penalty, no retry.
			return nil
		}
		// Classify the failure. A connection-level error means the worker
		// (and every spill it hosts) is unreachable: mark it dead. An
		// HTTP-level or decode error means the worker is up but failing:
		// penalise its health and retry elsewhere.
		if isConnError(err) {
			c.markDead(name)
		}
		c.noteOutcome(name, true)
		tried[name] = true
		c.mRetried.Inc()
		j.mu.Lock()
		j.counters.Retried++
		j.mu.Unlock()
		c.logf("map %s/%d attempt %d on %q failed (%v); retrying", j.spec.ID, i, attempt, name, err)
		if try >= mapreduce.MaxTaskAttempts {
			if speculative {
				j.clearSpec(i, attempt)
				return nil
			}
			return fmt.Errorf("%w: map task %d: %v", ErrRetryExhausted, i, err)
		}
		if err := sleep(ctx, c.backoff(try)); err != nil {
			return err
		}
	}
}

// clearSpec withdraws an in-flight backup attempt that could not be
// placed or kept failing, so a later straggler scan may try again.
func (j *clusterJob) clearSpec(i, attempt int) {
	j.mu.Lock()
	m := &j.maps[i]
	if m.hasSpec && m.specAttempt == attempt {
		m.hasSpec = false
		m.specWorker = ""
	}
	j.mu.Unlock()
}

// isConnError distinguishes transport-level failures (dial refused,
// reset, injected drop) from application-level ones: http.Client.Do
// wraps the former in *url.Error, while a non-2xx status or a decode
// failure never is one.
func isConnError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// postMap performs one /v1/map dispatch under the attempt's context.
func (j *clusterJob) postMap(ctx context.Context, baseURL string, split, attempt int) (*mapResponse, error) {
	j.c.mDispatched.Inc()
	j.mu.Lock()
	j.counters.MapsDispatched++
	j.mu.Unlock()
	body, err := json.Marshal(mapRequest{
		JobID:    j.spec.ID,
		Split:    split,
		Attempt:  attempt,
		Plan:     j.spec.Plan,
		Dataset:  j.spec.Dataset,
		Dataset2: j.spec.Dataset2,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/map", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("worker returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var mr mapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, err
	}
	return &mr, nil
}

// recordMapResult accepts a completed Map attempt, discarding stale
// attempts (idempotency under re-execution). Under speculation the first
// of the primary/backup pair to arrive wins: the task gets its result
// exactly once, the loser's dispatch is cancelled and its spills are
// released. A response whose Outputs do not cover every keyblock the
// split feeds is an error — the attempt failed, whatever its status code
// said — because every shuffle fetch validates against that metadata. So
// is a live attempt's result that had to be dropped, which leaves the
// task without an output; dropping a stale one is not.
func (j *clusterJob) recordMapResult(i, attempt int, worker, url string, start time.Time, resp *mapResponse) error {
	c := j.c
	outputs := make(map[int]keyblockMeta, len(resp.Outputs))
	for _, o := range resp.Outputs {
		outputs[o.Keyblock] = o
	}
	for _, kb := range j.plan.Graph.SplitToKB[i] {
		if _, ok := outputs[kb]; !ok {
			return fmt.Errorf("map response reports no spill for keyblock %d", kb)
		}
	}
	j.mu.Lock()
	m := &j.maps[i]
	// Stale: a rival attempt already produced the task's output, or this
	// attempt was superseded — the task is none the worse for dropping it.
	stale := m.out != nil || !m.validAttempt(attempt)
	if stale || j.ctx.Err() != nil || resp.Attempt != attempt {
		current := m.attempt
		j.mu.Unlock()
		c.logf("discarding map result %s/%d attempt %d (current %d, worker answered for %d)", j.spec.ID, i, attempt, current, resp.Attempt)
		// The discarded attempt's spills will never be fetched; reclaim them.
		c.releaseAttempt(url, j.spec.ID, i, attempt)
		if stale {
			return nil
		}
		// A live attempt's result that cannot count — the job resolved under
		// it, or the worker answered for another attempt — leaves the task
		// without an output: the try failed.
		return fmt.Errorf("map result discarded: job resolved or worker answered for attempt %d, want %d", resp.Attempt, attempt)
	}
	specWin := m.hasSpec && attempt == m.specAttempt
	hadSpec := m.hasSpec
	var loserAttempt int
	var loserWorker string
	if specWin {
		loserAttempt, loserWorker = m.attempt, m.dispWorker
		m.attempt = attempt // shuffle fetches must target the winner's spills
	} else if hadSpec {
		loserAttempt, loserWorker = m.specAttempt, m.specWorker
	}
	if hadSpec {
		if cancel := m.cancels[loserAttempt]; cancel != nil {
			cancel()
		}
		m.hasSpec = false
		m.specWorker = ""
	}
	m.out = &hosted{split: i, attempt: attempt, records: resp.Records, outputs: outputs, worker: worker, url: url}
	j.durations = append(j.durations, time.Since(start))
	j.counters.Records += resp.Records
	if specWin {
		j.counters.SpeculativeWins++
	}
	j.mu.Unlock()
	if hadSpec {
		c.mSpecCancelled.Inc()
		if specWin {
			c.mSpecWins.Inc()
			c.logf("map %s/%d: backup attempt %d overtook straggling primary %d", j.spec.ID, i, attempt, loserAttempt)
		}
		if loserWorker != "" {
			c.releaseAttempt(c.workerURL(loserWorker), j.spec.ID, i, loserAttempt)
		}
	}
	return nil
}
