package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
	"sidr/internal/ops"
	"sidr/internal/query"
	"sidr/internal/sidx"
	"sidr/internal/skew"
)

// Errors reported by Submit and lookup paths.
var (
	// ErrQueueFull is admission control rejecting a submission because
	// the job queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown rejects submissions after Shutdown began.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrUnknownJob is returned for lookups of ids never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// errClusterDisabled rejects cluster-routed submissions when the
	// manager has no coordinator configured.
	errClusterDisabled = errors.New("jobs: clustered execution not enabled")
	// ErrTenantQuota is per-tenant admission control rejecting a
	// submission because the tenant is at its max-in-flight quota; the
	// server answers 429 with detail "tenant-quota".
	ErrTenantQuota = errors.New("jobs: tenant quota exceeded")
)

// datasetProvider is what the manager knows of the datasets it serves.
// Acquire returns an open dataset and a release func the manager calls
// when the job is finished with it; implementations refcount handles so
// concurrent jobs share them. DatasetSpec describes a dataset as the
// cluster.DatasetSpec sidr-worker processes open by themselves
// (clustered jobs). Index returns the structural block-range index
// (internal/sidx) of a dataset variable, or nil when there is none; the
// one plan derivation consults it to prune value-predicated queries'
// split sets, whichever engine then runs the plan. DatasetVersion returns
// an opaque token that changes whenever the variable's contents could
// have changed; the result cache and in-flight collapse key on it, and a
// dataset without one (false) is always executed.
type datasetProvider interface {
	Acquire(name, variable string) (*sidr.Dataset, func(), error)
	DatasetSpec(name, variable string) (cluster.DatasetSpec, error)
	Index(name, variable string) *sidx.VarIndex
	DatasetVersion(name, variable string) (string, bool)
}

// Config parametrises a Manager.
type Config struct {
	// MaxConcurrent is the job worker-pool size: how many jobs may be in
	// flight at once (default GOMAXPROCS).
	MaxConcurrent int
	// ExecWorkers sizes the single process-wide task executor shared by
	// every running job (default GOMAXPROCS). Map/Reduce tasks from all
	// jobs are dispatched onto this one bounded pool; a job's Workers
	// request caps that job's share rather than spawning its own pool.
	ExecWorkers int
	// QueueDepth bounds queued-but-not-running jobs; submissions beyond
	// it fail with ErrQueueFull (default 64).
	QueueDepth int
	// PlanCacheSize is ignored.
	//
	// Deprecated: the manager keeps no plan cache; a repeated request is
	// answered by the result cache before it is planned. The field stays
	// only because the benchmark harness (bench/serve.go) still sets it.
	PlanCacheSize int
	// RetainJobs caps how many terminal (done/failed/cancelled) jobs
	// the table keeps; the oldest are evicted — results, partial logs
	// and all — once the cap is exceeded, so a long-running daemon does
	// not retain every query's output forever (default 256; < 0 keeps
	// all).
	RetainJobs int
	// Datasets resolves dataset names (required).
	Datasets datasetProvider
	// Cluster, when set, enables Request.Cluster jobs: the coordinator
	// dispatches their Map tasks to registered worker processes and runs
	// their Reduce tasks over the networked shuffle. Reduce tasks still
	// execute on this manager's shared executor, so reduce-first
	// scheduling and the process-wide concurrency budget apply.
	Cluster *cluster.Coordinator
	// ResultCacheBytes is the memory budget of the versioned result cache
	// (default 64 MiB; < 0 disables caching): the bytes its entries keep
	// alive — their rows, counted from row and number counts, and, once
	// an entry has been streamed to a hit, its encoded stream. Entries
	// are keyed on {dataset version, canonical query, engine, plan
	// parameters}.
	ResultCacheBytes int64
	// Tenants maps tenant names to explicit admission policies; tenants
	// absent from the map fall back to TenantDefault.
	Tenants map[string]TenantPolicy
	// TenantDefault applies to every tenant without an explicit policy
	// (zero value: unlimited in-flight, weight 1).
	TenantDefault TenantPolicy
	// Metrics receives job and cache instrumentation (default: a private
	// registry).
	Metrics *metrics.Registry
}

// Manager owns the worker pool, job table, result cache and collapse
// table.
type Manager struct {
	cfg   Config
	queue chan *Job
	exec  *exec.Executor
	seq   atomic.Int64
	wg    sync.WaitGroup

	rcache *resultCache

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	collapse map[string]*Job // fast key -> live leader job
	inflight map[string]int  // tenant -> non-terminal job count
	closed   bool

	mSubmitted, mDone, mFailed, mCancelled, mRejected, mEvicted *metrics.Counter
	mSidxHits, mSidxMisses, mSidxPruned                         *metrics.Counter
	mCollapsed, mTenantRejected                                 *metrics.Counter
	gQueued, gRunning                                           *metrics.Gauge
	gSkewKeyblocks, gSkewMaxOverMean                            *metrics.Gauge
	hQuerySeconds, hFirstResultSeconds                          *metrics.Histogram
}

// NewManager starts the worker pool and returns the manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Datasets == nil {
		return nil, fmt.Errorf("jobs: config needs a dataset provider")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.ExecWorkers <= 0 {
		cfg.ExecWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 256
	}
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	m := &Manager{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		exec:     exec.New(cfg.ExecWorkers),
		jobs:     make(map[string]*Job),
		collapse: make(map[string]*Job),
		inflight: make(map[string]int),

		mSubmitted:          cfg.Metrics.Counter("sidrd_jobs_submitted_total"),
		mDone:               cfg.Metrics.Counter("sidrd_jobs_done_total"),
		mFailed:             cfg.Metrics.Counter("sidrd_jobs_failed_total"),
		mCancelled:          cfg.Metrics.Counter("sidrd_jobs_cancelled_total"),
		mRejected:           cfg.Metrics.Counter("sidrd_jobs_rejected_total"),
		mEvicted:            cfg.Metrics.Counter("sidrd_jobs_evicted_total"),
		mSidxHits:           cfg.Metrics.Counter("sidrd_sidx_hits_total"),
		mSidxMisses:         cfg.Metrics.Counter("sidrd_sidx_misses_total"),
		mSidxPruned:         cfg.Metrics.Counter("sidrd_sidx_pruned_splits_total"),
		mCollapsed:          cfg.Metrics.Counter("sidrd_collapse_followers_total"),
		mTenantRejected:     cfg.Metrics.Counter("sidrd_tenant_rejected_total"),
		gQueued:             cfg.Metrics.Gauge("sidrd_jobs_queued"),
		gRunning:            cfg.Metrics.Gauge("sidrd_jobs_running"),
		gSkewKeyblocks:      cfg.Metrics.Gauge("sidrd_job_skew_keyblocks"),
		gSkewMaxOverMean:    cfg.Metrics.Gauge("sidrd_job_skew_max_over_mean_milli"),
		hQuerySeconds:       cfg.Metrics.Histogram("sidrd_query_seconds", nil),
		hFirstResultSeconds: cfg.Metrics.Histogram("sidrd_first_result_seconds", nil),
	}
	if cfg.ResultCacheBytes > 0 {
		m.rcache = newResultCache(cfg.ResultCacheBytes, cfg.Metrics)
	}
	for w := 0; w < cfg.MaxConcurrent; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.gQueued.Add(-1)
				m.runJob(j)
			}
		}()
	}
	return m, nil
}

// parseEngine maps the wire engine name to a sidr.Engine. The mapping
// lives in internal/core so the daemon, the CLIs and the cluster
// workers all accept the same vocabulary.
func parseEngine(s string) (sidr.Engine, error) {
	e, err := core.ParseEngine(s)
	if err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	return e, nil
}

// Submit validates the request and admits it, trying the serving-tier
// fast paths in order before paying for an execution:
//
//  1. result cache — a finished result for the same {dataset version,
//     canonical query, engine, plan parameters} is served as an
//     already-terminal job, byte-identical to the original run's;
//  2. in-flight collapse — an identical query already executing gains
//     the caller as a follower: it replays the leader's committed
//     partials and then rides the live stream, so N concurrent
//     identical requests cost one execution;
//  3. the queue — a fresh leader job, rejected with ErrQueueFull at
//     capacity.
//
// Per-tenant quotas gate all three: a tenant at its max-in-flight cap
// is refused with ErrTenantQuota before any path is tried.
func (m *Manager) Submit(req Request) (*Job, error) {
	engine, err := parseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	// Parse once and canonicalise up front: every spelling of one query
	// maps to one string, so the result cache and the collapse table
	// share entries across textual variants. The parsed query
	// rides on the job; execution never re-parses the text.
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	req.Query = q.String()
	if req.Dataset == "" {
		return nil, fmt.Errorf("jobs: request needs a dataset")
	}
	// A join query reads two datasets; anything else exactly one. Past
	// this check `Dataset2 != ""` IS "the query is a join": fastKey and
	// execute rely on it to pick their second input.
	if q.Join && req.Dataset2 == "" {
		return nil, fmt.Errorf("jobs: join query needs dataset2")
	}
	if !q.Join && req.Dataset2 != "" {
		return nil, fmt.Errorf("jobs: dataset2 is only valid with a join query")
	}
	if req.Tenant == "" {
		req.Tenant = defaultTenantName
	}
	if req.Cluster {
		// Reject unroutable cluster jobs at the door: no coordinator or
		// an empty worker table fail fast instead of queueing a doomed job.
		if m.cfg.Cluster == nil {
			return nil, errClusterDisabled
		}
		if m.cfg.Cluster.AliveWorkers() == 0 {
			return nil, cluster.ErrNoWorkers
		}
	}
	key, keyed := m.fastKey(req, q)
	j := newJob(fmt.Sprintf("job-%06d", m.seq.Add(1)), req, q, engine)
	j.cacheKey = key

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if quota := m.tenantPolicy(req.Tenant).MaxInFlight; quota > 0 && m.inflight[req.Tenant] >= quota {
		m.mu.Unlock()
		m.mTenantRejected.Inc()
		return nil, ErrTenantQuota
	}

	// Fast path 1: a finished result under this exact version-pinned key.
	// The job is born terminal — no queue slot, no tenant in-flight
	// charge — and its log IS the cached run's (the leader's own, see
	// execute), so its stream replays what the first client was sent.
	if keyed && m.rcache != nil {
		if e, ok := m.rcache.get(key); ok {
			res := e.res
			j.hit = e
			j.resultHit = true
			j.partials = res.Partials
			j.started = j.created
			m.jobs[j.ID] = j
			m.order = append(m.order, j.ID)
			m.mu.Unlock()
			j.finish(Done, res, nil)
			m.mSubmitted.Inc()
			m.tenantGauge(req.Tenant) // ensure the gauge exists even for pure-hit tenants
			m.prune()
			return j, nil
		}
	}

	// Fast path 2: the same query is executing right now — attach as a
	// follower of the live leader instead of queueing a duplicate.
	// The notify hook is installed before the job is published (attached
	// to a leader, or sent on the queue): whoever receives it may finish
	// it at once, and notifyTerminal reads the hook with no manager lock.
	// The hook itself blocks on m.mu, so it still runs after the
	// in-flight accounting below.
	tenant := req.Tenant
	if keyed {
		if leader, ok := m.collapse[key]; ok {
			j.notify = func() { m.jobDone(tenant, "", nil) }
			if leader.attach(j) {
				m.jobs[j.ID] = j
				m.order = append(m.order, j.ID)
				m.inflight[tenant]++
				m.tenantGauge(tenant).Add(1)
				m.mu.Unlock()
				m.mSubmitted.Inc()
				m.mCollapsed.Inc()
				return j, nil
			}
		}
	}

	j.notify = func() { m.jobDone(tenant, key, j) }
	m.gQueued.Add(1) // before the send: a worker may pop immediately
	select {
	case m.queue <- j:
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if keyed {
			m.collapse[key] = j
		}
		m.inflight[tenant]++
		m.tenantGauge(tenant).Add(1)
		m.mu.Unlock()
		m.mSubmitted.Inc()
		return j, nil
	default:
		j.notify = nil
		m.gQueued.Add(-1)
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrQueueFull
	}
}

// jobDone is the terminal-notify hook shared by leaders and followers:
// it releases the tenant's in-flight slot and, for leaders (leader !=
// nil), retires the collapse-table entry. Runs with no job lock held
// (see notifyTerminal).
func (m *Manager) jobDone(tenant, key string, leader *Job) {
	m.mu.Lock()
	if m.inflight[tenant] > 0 {
		m.inflight[tenant]--
	}
	gauge := m.tenantGauge(tenant)
	// Identity check: only the owning leader clears its entry, so a
	// newer leader registered under the same key is never evicted.
	if leader != nil && m.collapse[key] == leader {
		delete(m.collapse, key)
	}
	m.mu.Unlock()
	gauge.Add(-1)
}

// tenantGauge returns the per-tenant in-flight gauge, creating it on
// first use. Callers may hold m.mu; the metrics registry has its own
// lock and never calls back into the manager.
func (m *Manager) tenantGauge(tenant string) *metrics.Gauge {
	return m.cfg.Metrics.Gauge(fmt.Sprintf("sidrd_tenant_inflight{tenant=%q}", tenant))
}

// fastKey derives the result-cache / collapse key for a request: the
// version of EVERY input dataset (contents, not names — both sides of a
// join), canonical query, engine, and the plan parameters that change
// the answer's shape (reducers and split points as core.RequestDefaults
// resolves them — exactly what executes — max skew, cluster routing).
// Workers is deliberately excluded — it changes only scheduling, never
// bytes. Returns false when the provider cannot version any input; such
// requests always execute.
func (m *Manager) fastKey(req Request, q *query.Query) (string, bool) {
	ver, ok := m.cfg.Datasets.DatasetVersion(req.Dataset, q.Variable)
	if !ok {
		return "", false
	}
	var ver2 string
	if req.Dataset2 != "" { // a join, by Submit's check
		// Both inputs pin the key: new contents on EITHER side must change
		// it, or a stale join result could be served.
		if ver2, ok = m.cfg.Datasets.DatasetVersion(req.Dataset2, q.Variable2); !ok {
			return "", false
		}
	}
	reducers, splitPoints := core.RequestDefaults(q, req.Reducers, req.SplitPoints)
	return fmt.Sprintf("%s\x1f%s\x1f%s\x1f%s\x1f%d\x1f%d\x1f%d\x1f%t",
		ver, ver2, req.Query, req.Engine, reducers, splitPoints, req.MaxSkew, req.Cluster), true
}

// Get returns the job by id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Jobs lists snapshots in submission order.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// runJob executes one job on the calling worker.
func (m *Manager) runJob(j *Job) {
	defer m.prune()
	if !j.start() {
		// Cancelled while queued.
		m.mCancelled.Inc()
		return
	}
	m.gRunning.Add(1)
	defer m.gRunning.Add(-1)

	res, err := m.execute(j)
	switch {
	case err == nil:
		m.mDone.Inc()
		m.hQuerySeconds.Observe(res.Elapsed.Seconds())
		m.hFirstResultSeconds.Observe(res.FirstResult.Seconds())
		if len(res.KeyblockLoads) > 0 {
			m.publishSkew(j, skew.Summarize(res.KeyblockLoads))
		}
		if m.rcache != nil && j.cacheKey != "" {
			// Insert before finish: finish fires the notify hook that
			// retires the collapse entry, so a concurrent identical submit
			// always finds either the live leader or the cached result —
			// never neither.
			m.rcache.put(j.cacheKey, res)
		}
		j.finish(Done, res, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.mCancelled.Inc()
		j.finish(Cancelled, nil, err)
	default:
		m.mFailed.Inc()
		j.finish(stateFailed, nil, err)
	}
}

// prune evicts the oldest terminal jobs — snapshots, results and partial
// logs — once more than RetainJobs of them have accumulated, keeping the
// table bounded in a long-running daemon. Queued and running jobs are
// never evicted.
func (m *Manager) prune() {
	if m.cfg.RetainJobs < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id].currentState().terminal() {
			terminal++
		}
	}
	evict := terminal - m.cfg.RetainJobs
	if evict <= 0 {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if evict > 0 && m.jobs[id].currentState().terminal() {
			delete(m.jobs, id)
			m.mEvicted.Inc()
			evict--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// publishSkew records the finished job's keyblock balance: all of it on
// the job snapshot, and its keyblock count and max/mean ratio on the
// last-job skew gauges (the ratio in milli-units, the registry being
// integer-valued).
func (m *Manager) publishSkew(j *Job, s skew.Summary) {
	j.setSkew(&s)
	m.gSkewKeyblocks.Set(int64(s.Keyblocks))
	m.gSkewMaxOverMean.Set(int64(s.MaxOverMean * 1000))
}

// execute is the one request→result path, whichever engine runs the
// tasks: acquire the one or two inputs, check the query against their
// shapes, derive (or reuse) the plan, run it, and build the result from
// the job loop's result and the job's own partial log.
func (m *Manager) execute(j *Job) (*sidr.Result, error) {
	dsA, release, err := m.cfg.Datasets.Acquire(j.Req.Dataset, j.q.Variable)
	if err != nil {
		return nil, err
	}
	defer release()
	if err := j.q.Validate(dsA.Shape()); err != nil {
		return nil, err
	}
	readerA := dsA.Reader(j.ctx)
	var readerB coords.RecordReader // nil unless the query is a join
	if j.Req.Dataset2 != "" {       // a join, by Submit's check
		dsB, releaseB, err := m.cfg.Datasets.Acquire(j.Req.Dataset2, j.q.Variable2)
		if err != nil {
			return nil, err
		}
		defer releaseB()
		if err := j.q.ValidateSecond(dsB.Shape()); err != nil {
			return nil, err
		}
		readerB = dsB.Reader(j.ctx)
	}
	plan, err := m.plan(j, readerA, readerB)
	if err != nil {
		return nil, err
	}
	m.mSidxPruned.Add(int64(plan.PrunedSplits))
	loop, err := m.run(j, plan, readerA, readerB)
	if err != nil {
		return nil, err
	}
	// The loop has returned, so no commit callback will run any more
	// (mapreduce.Job.Run), and finish turns addPartial into a no-op: the
	// log is never appended to again, which lets the result share it.
	return sidr.NewResult(plan, loop, j.log())
}

// lookupIndex resolves the structural index for a value-predicated
// query and keeps the hit/miss counters. It returns nil — no pruning —
// when the operator has no prune predicate, the provider holds no
// index for the dataset, or the provider does not serve indexes at all.
func (m *Manager) lookupIndex(dataset string, q *query.Query) *sidx.VarIndex {
	op, err := q.Op()
	if err != nil {
		return nil
	}
	if _, ok := ops.PrunePredicate(op, q.Params()...); !ok {
		return nil // not value-predicated; the index has nothing to offer
	}
	vi := m.cfg.Datasets.Index(dataset, q.Variable)
	if vi == nil {
		m.mSidxMisses.Inc()
		return nil
	}
	m.mSidxHits.Inc()
	return vi
}

// plan derives the job's plan — once, for whichever engine runs it — from
// the normalised parameters and the data-dependent inputs: a join samples
// both acquired inputs for its keyblock layout, and a value-predicated
// query prunes by the structural index.
func (m *Manager) plan(j *Job, readerA, readerB coords.RecordReader) (*core.Plan, error) {
	opts := core.Options{MaxSkew: j.Req.MaxSkew}
	opts.Reducers, opts.SplitPoints = core.RequestDefaults(j.q, j.Req.Reducers, j.Req.SplitPoints)
	if readerB != nil {
		opts.JoinSamplerA, opts.JoinSamplerB = readerA, readerB
	} else {
		opts.Index = m.lookupIndex(j.Req.Dataset, j.q)
	}
	return core.NewPlan(j.q, j.engine, opts)
}

// run executes the plan's tasks, every commit going to the job's log, and
// returns the job loop's result. It is the one place the engines differ:
// in process the Map tasks read the acquired inputs; clustered, workers
// run them — re-deriving the plan from the tuple read off it — and the
// Reduce tasks, still on the shared executor, fetch each I_ℓ over the
// networked shuffle.
func (m *Manager) run(j *Job, plan *core.Plan, readerA, readerB coords.RecordReader) (*mapreduce.Result, error) {
	onOutput := func(out mapreduce.ReduceOutput) { j.addPartial(sidr.NewPartial(out, time.Now())) }
	weight := m.tenantWeight(j.Req.Tenant)
	if !j.Req.Cluster {
		return plan.RunLocalJoin(readerA, readerB, func(cfg *mapreduce.Config) {
			cfg.Ctx, cfg.Exec, cfg.Workers, cfg.Weight = j.ctx, m.exec, j.Req.Workers, weight
			cfg.OnReduceOutput = onOutput
		})
	}
	if m.cfg.Cluster == nil {
		return nil, errClusterDisabled
	}
	spec := cluster.JobSpec{ID: j.ID, Exec: m.exec, Workers: j.Req.Workers, Weight: weight, OnPartial: onOutput}
	var err error
	if spec.Dataset, err = m.cfg.Datasets.DatasetSpec(j.Req.Dataset, j.q.Variable); err != nil {
		return nil, err
	}
	if j.Req.Dataset2 != "" {
		dspecB, err := m.cfg.Datasets.DatasetSpec(j.Req.Dataset2, j.q.Variable2)
		if err != nil {
			return nil, err
		}
		spec.Dataset2 = &dspecB
	}
	res, err := m.cfg.Cluster.RunPlan(j.ctx, plan, spec)
	if err != nil {
		return nil, err
	}
	return res.Loop, nil
}

// Shutdown stops admission, cancels still-queued jobs, and waits for
// in-flight jobs to drain until ctx expires, at which point running jobs
// are cancelled and the wait resumes until they unwind.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	// Partition under the lock, cancel after: Cancel fires the
	// terminal-notify hook, which re-enters m.mu to release the tenant
	// slot and collapse entry.
	var queued, running []*Job
	for _, j := range m.jobs {
		if j.currentState() == stateQueued {
			queued = append(queued, j)
		} else {
			running = append(running, j)
		}
	}
	m.mu.Unlock()
	for _, j := range queued {
		j.Cancel()
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.exec.Close()
		return nil
	case <-ctx.Done():
		for _, j := range running {
			j.Cancel()
		}
		<-done
		m.exec.Close()
		return ctx.Err()
	}
}

// ExecStats reports the shared task executor's instantaneous state:
// pool size, queued + runnable + running task counts, peak concurrency
// and total dispatches. The server exposes these as gauges so operators
// can tell executor saturation (tasks waiting for a pool slot) apart
// from admission saturation (jobs rejected at the queue).
func (m *Manager) ExecStats() exec.Stats {
	return m.exec.Stats()
}
