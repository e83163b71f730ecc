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
	"sidr/internal/hdfs"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
	"sidr/internal/sched"
)

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a worker may go without a heartbeat
	// before it is evicted (default 5s).
	HeartbeatTimeout time.Duration
	// FetchRetries is how many times a single-spill shuffle fetch is
	// attempted against one hosting worker before the next replica is
	// tried or the spill is declared lost (default 4).
	FetchRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// retries (defaults 25ms and 1s); actual sleeps are jittered.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxTaskAttempts bounds how many attempts one Map task may consume
	// across dispatch retries and loss-driven re-executions (default 5).
	MaxTaskAttempts int
	// SpillReplicas is how many additional workers each committed Map
	// attempt's pack file is pushed to, asynchronously, so a worker
	// death or drain costs a replica re-fetch instead of a split
	// re-execution. 0 means the default of 1; negative disables
	// replication.
	SpillReplicas int
	// Metrics receives the sidrd_cluster_* / sidrd_shuffle_* instruments
	// (default: a private registry).
	Metrics *metrics.Registry
	// Client performs dispatch and shuffle requests. When unset, dispatch
	// uses a plain client (a Map response's headers arrive only after the
	// Map finishes executing, so no response-header timeout applies;
	// per-request contexts bound lifetimes) and shuffle fetches use a
	// pooled keep-alive transport sized for reduce fan-in (NewTransport).
	// When set, it is used for both — chaos/fault-injection tests wrap
	// one transport and must intercept every request.
	Client *http.Client
	// Seed seeds backoff jitter; 0 uses a fixed seed. Jitter only
	// desynchronises retries, so determinism is harmless.
	Seed int64
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

	// HealthAlpha is the EWMA weight of the newest dispatch/fetch/probe
	// outcome in a worker's fail score (default 0.3).
	HealthAlpha float64
	// QuarantineThreshold quarantines a worker whose fail score exceeds
	// it (default 0.5); ReinstateThreshold reinstates a quarantined
	// worker whose score decays below it (default 0.25). The gap is the
	// hysteresis that stops a borderline worker from flapping.
	QuarantineThreshold float64
	ReinstateThreshold  float64
}

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
	mReplicaPushes  *metrics.Counter
	mReplicaBytes   *metrics.Counter
	mReplicaFallbks *metrics.Counter
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
	if cfg.FetchRetries <= 0 {
		cfg.FetchRetries = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.MaxTaskAttempts <= 0 {
		cfg.MaxTaskAttempts = 5
	}
	switch {
	case cfg.SpillReplicas == 0:
		cfg.SpillReplicas = 1
	case cfg.SpillReplicas < 0:
		cfg.SpillReplicas = 0
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
	if cfg.HealthAlpha <= 0 || cfg.HealthAlpha > 1 {
		cfg.HealthAlpha = 0.3
	}
	if cfg.QuarantineThreshold <= 0 {
		cfg.QuarantineThreshold = 0.5
	}
	if cfg.ReinstateThreshold <= 0 {
		cfg.ReinstateThreshold = 0.25
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		client:     cfg.Client,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		workers:    make(map[string]*workerState),
		active:     make(map[string]*clusterJob),
		rng:        rand.New(rand.NewSource(cfg.Seed)),

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
		mReplicaPushes:  cfg.Metrics.Counter("sidrd_cluster_replica_pushes_total"),
		mReplicaBytes:   cfg.Metrics.Counter("sidrd_cluster_replica_bytes_total"),
		mReplicaFallbks: cfg.Metrics.Counter("sidrd_cluster_replica_fetch_fallbacks_total"),
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
	w.failScore = c.cfg.HealthAlpha*x + (1-c.cfg.HealthAlpha)*w.failScore
	switch {
	case !w.quarantined && w.failScore > c.cfg.QuarantineThreshold:
		w.quarantined = true
		c.mQuarantines.Inc()
		c.logf("worker %q quarantined (fail score %.2f)", name, w.failScore)
	case w.quarantined && w.failScore < c.cfg.ReinstateThreshold:
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

// Register adds (or revives) a worker with no locality identity.
func (c *Coordinator) Register(name, url string) error {
	return c.RegisterNode(name, url, "")
}

// RegisterNode adds (or revives) a worker, recording the namespace node
// it claims co-location with. Registration may happen mid-job: the next
// pickWorker sees the new worker immediately. Re-registering a drained
// or evicted name revives it with a clean membership state (health
// score survives by design).
func (c *Coordinator) RegisterNode(name, url, node string) error {
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
func (c *Coordinator) Heartbeat(name string) (ok, draining bool) {
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
func (c *Coordinator) Workers() []WorkerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(now)
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
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
	mux.HandleFunc("/v1/cluster/register", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.RegisterNode(req.Name, req.URL, req.Node); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/cluster/heartbeat", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		ok, draining := c.Heartbeat(req.Name)
		if !ok {
			if draining {
				http.Error(rw, "drained; exit", http.StatusGone)
			} else {
				http.Error(rw, "unknown worker; re-register", http.StatusNotFound)
			}
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(HeartbeatResponse{Draining: draining})
	})
	mux.HandleFunc("/v1/drain", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req DrainRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.Drain(req.Name); err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/cluster/workers", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(rw, "GET only", http.StatusMethodNotAllowed)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(struct {
			Workers []WorkerInfo `json:"workers"`
		}{c.Workers()})
	})
}

// JobSpec describes one clustered job.
type JobSpec struct {
	// ID names the job on the wire and in spill paths; empty generates
	// one.
	ID string
	// Plan is the plan-defining tuple workers re-derive the plan from.
	Plan JobPlan
	// Dataset tells workers how to open the input.
	Dataset DatasetSpec
	// Dataset2 is a join's side-B dataset; nil for single-input jobs.
	// The plan tuple must then carry the join query and its Retile.
	Dataset2 *DatasetSpec
	// Namespace and File optionally attach HDFS block locations to
	// splits for locality-aware placement (coordinator side only; split
	// geometry is unaffected, so worker plans stay identical).
	Namespace *hdfs.Namespace
	File      string
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
// engine's type, produced by the same mapreduce.ExecReduce.
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
	// ReplicaPushes counts pack replicas successfully installed on
	// another worker; ReplicaBytes their byte volume.
	ReplicaPushes int64
	ReplicaBytes  int64
	// ReplicaFetchFallbacks counts reduce dependencies served from a
	// replica because the hosting worker died or drained — each one is a
	// re-execution that didn't happen.
	ReplicaFetchFallbacks int64
	// DispatchLocal and DispatchRemote count Map dispatches of splits
	// that carried block-location hints, split by whether the pick
	// matched one (node-local placement) or fell back to a remote
	// worker.
	DispatchLocal  int64
	DispatchRemote int64
}

// JobResult is a completed clustered job.
type JobResult struct {
	// Outputs holds every keyblock's finalized output, indexed by
	// keyblock.
	Outputs []ReduceResult
	// Plan is the coordinator-side plan the job ran under.
	Plan     *core.Plan
	Counters Counters
}

// clusterJob is the in-flight state of one Run.
type clusterJob struct {
	c      *Coordinator
	spec   JobSpec
	plan   *core.Plan
	in     mapreduce.MapInput // ExecReduce's input (no readers: Maps run on workers)
	ctx    context.Context
	cancel context.CancelFunc
	handle *exec.Handle

	// partials tracks in-flight OnPartial callbacks; done is only closed
	// after it drains, so Run never returns while a callback is running.
	partials sync.WaitGroup
	// specWG tracks the speculation monitor and backup dispatch
	// goroutines, which run outside the executor handle on purpose: a
	// backup submitted through the handle could queue behind the very
	// hung dispatches it exists to overtake. Run joins it before
	// releasing worker state.
	specWG sync.WaitGroup

	mu          sync.Mutex
	maps        []mapTask
	enqueued    []bool // reduce l submitted (or running)
	outputs     []ReduceResult
	reduceDone  []bool
	reducesLeft int
	durations   []time.Duration // completed Map attempt durations (speculation median)
	counters    Counters
	err         error
	done        chan struct{}
}

// mapTask tracks one Map task's current attempt (plus, under
// speculation, one in-flight backup attempt). The zero value is a valid
// fresh task: attempt 0, no backup, IDs allocated lazily.
type mapTask struct {
	attempt    int    // current primary attempt ID
	done       bool   // a winning attempt completed and its spills are hosted
	worker     string // hosting worker name (done only)
	url        string // hosting worker base URL (done only)
	dispatches int    // attempts consumed, for the MaxTaskAttempts bound
	corrupt    int    // checksum-forced re-executions of this task

	// outputs is the winning attempt's per-keyblock spill metadata
	// (size, pair count, kv-count annotation), reported by the worker at
	// Map time; it covers every keyblock in SplitToKB[split]
	// (recordMapResult rejects a response that does not). Shuffle fetches
	// validate every received frame against it.
	outputs map[int]KeyblockMeta

	// replicas lists the workers holding a verified copy of the winning
	// attempt's pack, usable as fetch sources interchangeably with the
	// primary. replInFlight dedupes concurrent push scheduling.
	replicas     []replicaLoc
	replInFlight bool

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

// Run executes a clustered job and blocks until it completes or fails.
// Map tasks are dispatched to workers (locality first), Reduce tasks
// run in the coordinator and fetch exactly their I_ℓ spills from the
// workers' shuffle endpoints, validated against the spill headers'
// kv-count annotations before finalizing.
func (c *Coordinator) Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
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
	plan, err := spec.Plan.newPlan(spec.Namespace, spec.File)
	if err != nil {
		return nil, err
	}
	in, err := plan.TaskInput(nil, nil)
	if err != nil {
		return nil, err
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &clusterJob{
		c:          c,
		spec:       spec,
		plan:       plan,
		in:         in,
		ctx:        jctx,
		cancel:     cancel,
		handle:     spec.Exec.NewHandle(exec.HandleOptions{Weight: spec.Weight, MaxParallel: spec.Workers}),
		maps:       make([]mapTask, len(plan.Splits)),
		enqueued:   make([]bool, plan.Part.NumKeyblocks()),
		outputs:    make([]ReduceResult, plan.Part.NumKeyblocks()),
		reduceDone: make([]bool, plan.Part.NumKeyblocks()),
		done:       make(chan struct{}),
	}
	defer j.handle.Close()
	j.reducesLeft = plan.Part.NumKeyblocks()

	// Keyblocks with no dependencies finalize immediately as empty.
	j.mu.Lock()
	for l := range j.reduceDone {
		if len(plan.Graph.KBToSplits[l]) == 0 {
			j.reduceDone[l] = true
			j.outputs[l] = ReduceResult{Keyblock: l}
			j.reducesLeft--
		}
	}
	resolved := j.reducesLeft == 0
	j.mu.Unlock()
	if resolved {
		return j.result(), nil
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

	// Cancellation watchdog.
	go func() {
		<-jctx.Done()
		j.fail(jctx.Err())
	}()

	// Straggler monitor: scans running Map dispatches and launches
	// backup attempts for the ones an unsatisfied keyblock is waiting on.
	if c.cfg.Speculation {
		j.specWG.Add(1)
		go func() {
			defer j.specWG.Done()
			j.speculationLoop()
		}()
	}

	// Submit every Map task in dependency-driven order: splits feeding
	// the front of the keyblock priority list dispatch first (§3.3), so
	// early keyblocks' dependencies complete early.
	order := sched.DependencyDrivenMapOrder(plan.Graph, plan.Priority)
	for pos, split := range order {
		j.submitMap(split, pos)
	}

	<-j.done
	// The job is resolved either way: drop queued tasks, abort in-flight
	// dispatches and fetches, join the speculation goroutines, then
	// release worker-side state (cached plan/dataset and spills) before
	// handing the result back.
	j.handle.Close()
	j.cancel()
	j.specWG.Wait()
	c.releaseJob(spec.ID)
	j.mu.Lock()
	err = j.err
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return j.result(), nil
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
			c.postRelease(ctx, u, ReleaseRequest{JobID: jobID})
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
		c.postRelease(ctx, baseURL, ReleaseRequest{JobID: jobID, Split: &split, Attempt: &attempt})
	}()
}

func (c *Coordinator) postRelease(ctx context.Context, baseURL string, rr ReleaseRequest) {
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

// result snapshots the completed job.
func (j *clusterJob) result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobResult{Outputs: append([]ReduceResult(nil), j.outputs...), Plan: j.plan, Counters: j.counters}
}

// fail records the job's first error, cancels pending work and resolves
// Run. In-flight OnPartial callbacks are drained before done closes, so
// no callback ever races Run's caller.
func (j *clusterJob) fail(err error) {
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.err != nil || j.reducesLeft <= 0 {
		j.mu.Unlock()
		return
	}
	j.err = err
	j.reducesLeft = -1 // poison: no later success path
	j.handle.Cancel()
	j.cancel()
	j.mu.Unlock()
	j.partials.Wait()
	close(j.done)
}

// failed reports whether the job already resolved (error or success).
func (j *clusterJob) resolvedLocked() bool { return j.reducesLeft <= 0 }

// readyLocked reports whether every I_ℓ dependency of keyblock l is
// satisfied by a completed Map attempt. Readiness is always recomputed
// from maps[].done — never cached in a counter — so re-executed
// attempts can neither double-satisfy nor strand a dependency.
// Caller holds j.mu.
func (j *clusterJob) readyLocked(l int) bool {
	for _, s := range j.plan.Graph.KBToSplits[l] {
		if !j.maps[s].done {
			return false
		}
	}
	return true
}

// submitMap enqueues a dispatch of map task i at its current attempt.
func (j *clusterJob) submitMap(i, priority int) {
	j.mu.Lock()
	attempt := j.maps[i].attempt
	j.mu.Unlock()
	if !j.handle.Submit(exec.Map, priority, func() { j.dispatchAttempt(i, attempt, make(map[string]bool), false) }) {
		j.fail(fmt.Errorf("%w: map task %d rejected", ErrExecutorClosed, i))
	}
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
		case <-j.done:
			return
		case <-t.C:
			j.scanStragglers()
		}
	}
}

// scanStragglers launches a backup attempt for every running primary
// dispatch older than SpeculationFactor × the median completed attempt
// duration, provided an unsatisfied keyblock depends on its split and
// no backup is already in flight. Backups avoid the primary's worker
// and run in direct goroutines (not through the executor handle), so a
// pool saturated with hung dispatches cannot starve its own rescue.
func (j *clusterJob) scanStragglers() {
	c := j.c
	now := time.Now()
	j.mu.Lock()
	if j.resolvedLocked() || len(j.durations) == 0 {
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
		if m.done || m.hasSpec || m.started.IsZero() || now.Sub(m.started) < threshold {
			continue
		}
		needed := false
		for _, kb := range j.plan.Graph.SplitToKB[i] {
			if !j.reduceDone[kb] {
				needed = true
				break
			}
		}
		if !needed {
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
			j.dispatchAttempt(sp.split, sp.attempt, avoid, true)
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
func (j *clusterJob) dispatchAttempt(i, attempt int, tried map[string]bool, speculative bool) {
	c := j.c
	j.mu.Lock()
	m := &j.maps[i]
	if j.resolvedLocked() || m.done || !m.validAttempt(attempt) {
		j.mu.Unlock()
		return // stale or already satisfied
	}
	m.dispatches++
	if m.dispatches > c.cfg.MaxTaskAttempts {
		corrupt := m.corrupt
		j.mu.Unlock()
		if corrupt > 0 {
			j.fail(fmt.Errorf("%w: map task %d exceeded %d attempts (%d checksum failures): %w",
				ErrRetryExhausted, i, c.cfg.MaxTaskAttempts, corrupt, ErrSpillCorrupt))
		} else {
			j.fail(fmt.Errorf("%w: map task %d exceeded %d attempts", ErrRetryExhausted, i, c.cfg.MaxTaskAttempts))
		}
		return
	}
	if !speculative {
		m.started = time.Now()
	}
	j.mu.Unlock()

	hosts := j.plan.Splits[i].Hosts
	for try := 0; ; try++ {
		if j.ctx.Err() != nil {
			return
		}
		name, url, local, err := c.pickWorker(hosts, tried)
		if err != nil {
			if speculative {
				// No worker to run the backup on: withdraw it quietly and
				// let a later scan retry once the cluster changes.
				j.clearSpec(i, attempt)
				return
			}
			j.fail(fmt.Errorf("map task %d: %w", i, err))
			return
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
		actx, acancel := context.WithCancel(j.ctx)
		j.mu.Lock()
		m = &j.maps[i]
		if j.resolvedLocked() || m.done || !m.validAttempt(attempt) {
			j.mu.Unlock()
			acancel()
			c.releaseWorker(name, false)
			return
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
		lostRace := actx.Err() != nil && j.ctx.Err() == nil
		j.mu.Lock()
		if j.maps[i].cancels[attempt] != nil {
			delete(j.maps[i].cancels, attempt)
		}
		j.mu.Unlock()
		acancel()

		if err == nil {
			err = j.recordMapResult(i, attempt, name, url, start, resp)
		}
		c.releaseWorker(name, err == nil)
		if err == nil {
			c.noteOutcome(name, false)
			return
		}
		if j.ctx.Err() != nil {
			return
		}
		if lostRace {
			// Only this attempt was cancelled: it lost a speculation race.
			// Not the worker's fault — no penalty, no retry.
			return
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
		if try >= c.cfg.MaxTaskAttempts {
			if speculative {
				j.clearSpec(i, attempt)
				return
			}
			j.fail(fmt.Errorf("%w: map task %d: %v", ErrRetryExhausted, i, err))
			return
		}
		if sleep(j.ctx, c.backoff(try)) != nil {
			return
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
func (j *clusterJob) postMap(ctx context.Context, baseURL string, split, attempt int) (*MapResponse, error) {
	j.c.mDispatched.Inc()
	j.mu.Lock()
	j.counters.MapsDispatched++
	j.mu.Unlock()
	body, err := json.Marshal(MapRequest{
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
	var mr MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, err
	}
	return &mr, nil
}

// recordMapResult accepts a completed Map attempt, discarding stale
// attempts (idempotency under re-execution), and enqueues every Reduce
// task whose I_ℓ just completed. Under speculation the first of the
// primary/backup pair to arrive wins: the task commits exactly once,
// the loser's dispatch is cancelled and its spills are released. A
// response whose Outputs do not cover every keyblock the split feeds is
// an error — the attempt failed, whatever its status code said — because
// every shuffle fetch validates against that metadata.
func (j *clusterJob) recordMapResult(i, attempt int, worker, url string, start time.Time, resp *MapResponse) error {
	c := j.c
	outputs := make(map[int]KeyblockMeta, len(resp.Outputs))
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
	if j.resolvedLocked() || m.done || !m.validAttempt(attempt) || resp.Attempt != attempt {
		current := m.attempt
		j.mu.Unlock()
		c.logf("discarding stale map result %s/%d attempt %d (current %d)", j.spec.ID, i, attempt, current)
		// The late attempt's spills will never be fetched; reclaim them.
		c.releaseAttempt(url, j.spec.ID, i, attempt)
		return nil
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
	m.done = true
	m.worker = worker
	m.url = url
	m.outputs = outputs
	j.durations = append(j.durations, time.Since(start))
	j.counters.Records += resp.Records
	if specWin {
		j.counters.SpeculativeWins++
	}
	var ready []int
	for _, kb := range j.plan.Graph.SplitToKB[i] {
		if j.reduceDone[kb] || j.enqueued[kb] {
			continue
		}
		if j.readyLocked(kb) {
			j.enqueued[kb] = true
			ready = append(ready, kb)
		}
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
	// Replicate the freshly committed pack before anything can lose it;
	// async, so the reduce pipeline never waits on replication.
	j.scheduleReplicas(i)
	if j.c.onMapResult != nil {
		j.c.onMapResult(j.spec.ID, i, worker)
	}
	for _, kb := range ready {
		j.submitReduce(kb)
	}
	return nil
}

// submitReduce enqueues reduce task l; Reduce class outranks every
// queued Map dispatch on the handle (reduce-first scheduling, §3.3).
func (j *clusterJob) submitReduce(l int) {
	priority := l
	if j.plan.Priority != nil {
		for pos, kb := range j.plan.Priority {
			if kb == l {
				priority = pos
				break
			}
		}
	}
	if !j.handle.Submit(exec.Reduce, priority, func() { j.runReduce(l) }) {
		j.fail(fmt.Errorf("%w: reduce task %d rejected", ErrExecutorClosed, l))
	}
}

// runReduce fetches keyblock l's I_ℓ spills point-to-point from their
// hosting workers (fetch.go), tallies the kv-count annotations against
// the dependency graph's expected count, and finalizes the keyblock.
// Lost spills trigger Map re-execution instead of finalizing short.
func (j *clusterJob) runReduce(l int) {
	j.mu.Lock()
	if j.resolvedLocked() || j.reduceDone[l] {
		j.mu.Unlock()
		return
	}
	deps := make([]reduceDep, 0, len(j.plan.Graph.KBToSplits[l]))
	for _, s := range j.plan.Graph.KBToSplits[l] {
		m := j.maps[s]
		if !m.done {
			// A dependency regressed (its worker died and the task is
			// re-executing), so this enqueue is stale. Clearing
			// enqueued[l] here — in the same critical section that
			// observed the open dependency, before its recordMapResult
			// can run — guarantees the reduce is re-enqueued when the
			// fresh attempt completes.
			j.enqueued[l] = false
			j.mu.Unlock()
			return
		}
		cands := append([]replicaLoc{{worker: m.worker, url: m.url}}, m.replicas...)
		deps = append(deps, reduceDep{split: s, attempt: m.attempt, meta: m.outputs[l], cands: cands})
	}
	j.mu.Unlock()

	if !j.fetchDeps(l, deps) {
		return
	}

	// Streams go to the k-way merge in ascending split order, the same
	// order as the in-process engine (stream-index tie-breaks make merge
	// output order-sensitive). fetchOnce has checked each spill header's
	// annotation against the Map-time record it tallies here.
	streams := make([][]kv.Pair, len(deps))
	var tally int64
	for i := range deps {
		streams[i] = deps[i].pairs
		tally += deps[i].meta.SourceCount
	}

	// The §3.2.1 integrity gate: the annotation tally must equal the
	// planner's expected source count or the reduce never finalizes.
	if want := j.plan.Graph.ExpectedCount[l]; tally != want {
		j.fail(fmt.Errorf("%w: keyblock %d tallied %d source pairs, expected %d", ErrCountMismatch, l, tally, want))
		return
	}

	out := mapreduce.ExecReduce(j.in, l, streams)

	j.mu.Lock()
	if j.resolvedLocked() || j.reduceDone[l] {
		j.mu.Unlock()
		return
	}
	j.reduceDone[l] = true
	j.outputs[l] = out
	j.partials.Add(1)
	j.mu.Unlock()

	// OnPartial runs before this reduce is counted done, so done (and
	// with it Run) cannot resolve while any callback is still running.
	if j.spec.OnPartial != nil {
		j.spec.OnPartial(out)
	}
	j.partials.Done()

	j.mu.Lock()
	finished := false
	if j.reducesLeft > 0 { // not poisoned by fail
		j.reducesLeft--
		finished = j.reducesLeft == 0
	}
	j.mu.Unlock()
	if finished {
		close(j.done)
	}
}

// rearm handles a lost spill for reduce l: every I_ℓ dependency whose
// hosting worker is gone — or whose specific attempt is named in lost
// (checksum failure, unserved spill on a live worker) — is reset to a
// fresh attempt ID and re-dispatched, and the reduce re-enqueues (via
// recordMapResult's readiness recomputation) when they complete. lost
// maps split → failed attempt ID; the attempt match guards a fresh
// re-executed attempt from being invalidated by its predecessor's
// stale failure. Sibling keyblocks fed by a reset split are repaired
// too — their enqueued flags are cleared so the fresh attempt
// re-enqueues them instead of recordMapResult skipping them forever.
// Superseded attempts that straggle in are discarded by the attempt
// check in recordMapResult.
func (j *clusterJob) rearm(l int, lost map[int]int, corrupt bool) {
	c := j.c
	j.mu.Lock()
	if j.resolvedLocked() || j.reduceDone[l] {
		j.mu.Unlock()
		return
	}
	type redo struct{ split, priority int }
	var redispatch []redo
	open := 0
	for _, s := range j.plan.Graph.KBToSplits[l] {
		m := &j.maps[s]
		forced := false
		if a, ok := lost[s]; ok && m.attempt == a {
			forced = true
		}
		switch {
		case m.done && (forced || !c.liveWorker(m.worker)):
			// Lost primary, but not a forced invalidation (corrupt or
			// unserved bytes poison the attempt everywhere): a verified
			// replica on a live worker carries the identical pack, so
			// promote it to primary instead of re-executing the split.
			if !forced {
				promoted := false
				for ri, alt := range m.replicas {
					if !c.liveWorker(alt.worker) {
						continue
					}
					c.logf("map %s/%d: worker %q gone; promoting replica on %q (attempt %d kept)",
						j.spec.ID, s, m.worker, alt.worker, m.attempt)
					m.worker, m.url = alt.worker, alt.url
					m.replicas = append(m.replicas[:ri:ri], m.replicas[ri+1:]...)
					// The promotion IS the replica fallback: the re-run
					// reduce sees the replica as primary and counts nothing.
					c.mReplicaFallbks.Inc()
					j.counters.ReplicaFetchFallbacks++
					promoted = true
					break
				}
				if promoted {
					continue
				}
			}
			// The spill died with its worker (or its bytes are poison):
			// invalidate the attempt and re-execute.
			m.attempt = m.allocAttempt()
			m.done = false
			m.worker, m.url = "", ""
			m.replicas = nil
			m.started = time.Time{}
			if forced && corrupt {
				m.corrupt++
			}
			redispatch = append(redispatch, redo{split: s, priority: s})
			open++
			c.mReexecuted.Inc()
			j.counters.Reexecuted++
			c.logf("re-executing map %s/%d as attempt %d", j.spec.ID, s, m.attempt)
		case !m.done:
			// Already being re-executed on behalf of another keyblock.
			open++
		}
	}
	if open == 0 {
		// Every dependency is hosted on a live worker — the failed fetch
		// targeted a superseded attempt. Re-run the reduce against the
		// current attempts.
		j.mu.Unlock()
		j.submitReduce(l)
		return
	}
	j.enqueued[l] = false
	// Repair the sibling keyblocks of every reset split: a sibling whose
	// enqueue consumed the now-invalidated attempt would otherwise be
	// skipped by recordMapResult (enqueued still true) while its queued
	// runReduce early-returns on the open dependency — stranding the
	// job. Clearing the flag lets the fresh attempt re-enqueue it;
	// finalized siblings keep their outputs (any completed attempt's
	// spill is valid data).
	for _, r := range redispatch {
		for _, kb := range j.plan.Graph.SplitToKB[r.split] {
			if !j.reduceDone[kb] {
				j.enqueued[kb] = false
			}
		}
	}
	j.mu.Unlock()
	for _, r := range redispatch {
		j.submitMap(r.split, r.priority)
	}
}
