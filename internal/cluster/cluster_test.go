package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/depgraph"
	"sidr/internal/exec"
	"sidr/internal/metrics"
)

// The tests run a quickstart-shaped structural query — a daily mean over
// a seeded synthetic temperature grid — against real worker HTTP servers
// on distinct loopback ports.
const (
	testQueryText = "avg temp[0,0,0 : 30,24,24] es {1,4,4}"
	testSeed      = 42
)

func testJobPlan() JobPlan {
	return JobPlan{Query: testQueryText, Engine: "sidr", Reducers: 4, SplitPoints: 1500}
}

func testDataset() DatasetSpec {
	return DatasetSpec{Kind: "synthetic", Generator: "temperature", Seed: testSeed, Shape: []int64{30, 24, 24}}
}

// testWorker is one in-process worker instance on its own port.
type testWorker struct {
	w    *Worker
	srv  *httptest.Server
	dir  string
	once sync.Once
}

// kill simulates losing the worker process and its disk.
func (tw *testWorker) kill() {
	tw.once.Do(func() {
		tw.srv.CloseClientConnections()
		tw.srv.Close()
		os.RemoveAll(tw.dir)
	})
}

// startCluster brings up a coordinator and n registered in-process
// workers, each serving on its own port.
func startCluster(t *testing.T, n int, cfg CoordinatorConfig) (*Coordinator, []*testWorker) {
	t.Helper()
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 30 * time.Second // tests drive liveness explicitly
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
		cfg.RetryMax = 20 * time.Millisecond
	}
	c := NewCoordinator(cfg)
	var workers []*testWorker
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		w, err := NewWorker(WorkerConfig{Name: fmt.Sprintf("w%d", i), SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		tw := &testWorker{w: w, srv: httptest.NewServer(w), dir: dir}
		t.Cleanup(tw.kill)
		t.Cleanup(func() { tw.w.Close() })
		if err := c.Register(fmt.Sprintf("w%d", i), tw.srv.URL); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, tw)
	}
	return c, workers
}

func runClusterJob(t *testing.T, c *Coordinator, tweak func(*JobSpec)) (*JobResult, error) {
	t.Helper()
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	spec := JobSpec{Plan: testJobPlan(), Dataset: testDataset(), Exec: ex}
	if tweak != nil {
		tweak(&spec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return c.Run(ctx, spec)
}

// inProcessRun executes the identical query on the in-process engine.
func inProcessRun(t *testing.T) *sidr.Result {
	t.Helper()
	gen := datagen.Temperature(testSeed)
	ds, err := sidr.Synthetic(testDataset().Shape, func(k []int64) float64 { return gen(coords.Coord(k)) })
	if err != nil {
		t.Fatal(err)
	}
	q, err := sidr.ParseQuery(testQueryText)
	if err != nil {
		t.Fatal(err)
	}
	jp := testJobPlan()
	res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: jp.Reducers, SplitPoints: jp.SplitPoints})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// flatten orders a clustered job's outputs exactly like the sidr facade
// flattens in-process results: global row-major key sort.
func flatten(res *JobResult) ([][]int64, [][]float64) {
	type row struct {
		key  coords.Coord
		vals []float64
	}
	var rows []row
	for _, out := range res.Outputs {
		for i, k := range out.Keys {
			rows = append(rows, row{key: k, vals: out.Values[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key.Less(rows[j].key) })
	keys := make([][]int64, len(rows))
	vals := make([][]float64, len(rows))
	for i, r := range rows {
		keys[i] = append([]int64(nil), r.key...)
		vals[i] = r.vals
	}
	return keys, vals
}

// TestClusterMatchesInProcessEngine is the end-to-end acceptance test:
// a job across a coordinator and two worker instances on distinct ports
// must produce byte-identical output to the in-process engine, and its
// Reduce tasks must open exactly Σ_ℓ |I_ℓ| shuffle connections (Fig. 6).
func TestClusterMatchesInProcessEngine(t *testing.T) {
	c, workers := startCluster(t, 2, CoordinatorConfig{})
	var (
		partMu   sync.Mutex
		partials int
	)
	res, err := runClusterJob(t, c, func(spec *JobSpec) {
		spec.OnPartial = func(ReduceResult) {
			partMu.Lock()
			partials++
			partMu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	local := inProcessRun(t)

	// Run must not return before every OnPartial callback has been
	// delivered (one per keyblock with dependencies; empty keyblocks
	// finalize without a callback).
	withDeps := 0
	for _, deps := range res.Plan.Graph.KBToSplits {
		if len(deps) > 0 {
			withDeps++
		}
	}
	partMu.Lock()
	delivered := partials
	partMu.Unlock()
	if delivered != withDeps {
		t.Fatalf("Run returned with %d of %d partial callbacks delivered", delivered, withDeps)
	}

	keys, vals := flatten(res)
	if len(keys) == 0 {
		t.Fatal("cluster job produced no output")
	}
	if !reflect.DeepEqual(keys, local.Keys) {
		t.Fatalf("cluster keys differ from in-process keys: %d vs %d rows", len(keys), len(local.Keys))
	}
	if !reflect.DeepEqual(vals, local.Values) {
		t.Fatal("cluster values differ from in-process values (not byte-identical)")
	}

	want := res.Plan.Graph.SIDRConnections()
	if res.Counters.Connections != want {
		t.Fatalf("shuffle connections = %d, want Σ|I_ℓ| = %d", res.Counters.Connections, want)
	}
	all := int64(len(res.Plan.Splits)) * int64(res.Plan.Part.NumKeyblocks())
	if want >= all {
		t.Fatalf("test query is not structural enough: Σ|I_ℓ| = %d is not < maps×reduces = %d", want, all)
	}
	// Both workers actually executed Map tasks.
	for _, tw := range workers {
		if tw.w.MapsDone() == 0 {
			t.Fatalf("worker did no map work; not a distributed run")
		}
	}
}

// TestShuffleAccountingMetrics pins the counters the daemon exports.
func TestShuffleAccountingMetrics(t *testing.T) {
	reg := metrics.New()
	c, _ := startCluster(t, 2, CoordinatorConfig{Metrics: reg})
	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sidrd_shuffle_connections_total").Value(); got != res.Plan.Graph.SIDRConnections() {
		t.Fatalf("sidrd_shuffle_connections_total = %d, want %d", got, res.Plan.Graph.SIDRConnections())
	}
	if reg.Counter("sidrd_shuffle_bytes_total").Value() == 0 {
		t.Fatal("sidrd_shuffle_bytes_total stayed zero")
	}
	if reg.Counter("sidrd_cluster_tasks_dispatched_total").Value() < int64(len(res.Plan.Splits)) {
		t.Fatal("dispatched counter below split count")
	}
	// The histogram observes HTTP requests, not logical connections: a
	// request carrying n spills is one observation.
	if reg.Histogram("sidrd_shuffle_fetch_seconds", nil).Count() != res.Counters.ShuffleRequests {
		t.Fatal("fetch latency histogram count != shuffle requests")
	}
	if got := reg.Counter("sidrd_shuffle_requests_total").Value(); got != res.Counters.ShuffleRequests {
		t.Fatalf("sidrd_shuffle_requests_total = %d, want %d", got, res.Counters.ShuffleRequests)
	}
	if res.Counters.ShuffleRequests >= res.Counters.Connections {
		t.Fatalf("batching collapsed nothing: %d requests for %d connections",
			res.Counters.ShuffleRequests, res.Counters.Connections)
	}
	if res.Counters.BatchFallbacks != 0 {
		t.Fatalf("%d batch fallbacks on a healthy cluster", res.Counters.BatchFallbacks)
	}
	// Batching bounds requests by (reduce, worker) pairs.
	maxBatched := int64(res.Plan.Part.NumKeyblocks()) * 2 // 2 workers
	if res.Counters.ShuffleRequests > maxBatched {
		t.Fatalf("shuffle requests = %d, want ≤ reduces×workers = %d", res.Counters.ShuffleRequests, maxBatched)
	}
	if res.Counters.ShuffleBytes != reg.Counter("sidrd_shuffle_bytes_total").Value() {
		t.Fatalf("job bytes %d != metric bytes %d", res.Counters.ShuffleBytes,
			reg.Counter("sidrd_shuffle_bytes_total").Value())
	}
}

// rewriteSpills interposes on a worker's shuffle endpoint: each spill
// in a successful response is handed to fn (with the split and attempt
// its SFRM frame names) to damage in place. Frame headers and lengths
// are left intact, so the damage is the spill's alone.
func rewriteSpills(inner http.Handler, fn func(split, attempt int, spill []byte)) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != shuffleBatchPath {
			inner.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for off := 0; rec.Code == http.StatusOK && off < len(body); {
			split, attempt, _, length, err := parseFrameHeader(body[off : off+frameHeaderLen])
			if err != nil {
				panic(err) // the worker under test wrote a bad frame
			}
			off += frameHeaderLen
			fn(split, attempt, body[off:off+int(length)])
			off += int(length)
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	})
}

// tamperSourceCount wraps a worker and lowers every non-zero served
// spill's kv-count annotation (the little-endian u64 at header bytes
// 10..18) by one — the §3.2.1 failure a Reduce task must refuse to
// finalize on.
func tamperSourceCount(inner *Worker) http.Handler {
	return rewriteSpills(inner, func(_, _ int, spill []byte) {
		if src := binary.LittleEndian.Uint64(spill[10:18]); src > 0 {
			binary.LittleEndian.PutUint64(spill[10:18], src-1)
		}
	})
}

// TestShortKVCountNeverFinalizes: a reduce whose annotation tally comes
// up short must never finalize — the job fails with ErrCountMismatch and
// no partial is ever delivered.
func TestShortKVCountNeverFinalizes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWorker(WorkerConfig{Name: "w0", SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv := httptest.NewServer(tamperSourceCount(w))
	defer srv.Close()

	c := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: 30 * time.Second,
		RetryBase:        time.Millisecond,
		RetryMax:         10 * time.Millisecond,
	})
	if err := c.Register("w0", srv.URL); err != nil {
		t.Fatal(err)
	}
	var partials int64
	res, err := runClusterJob(t, c, func(spec *JobSpec) {
		spec.OnPartial = func(ReduceResult) { partials++ }
	})
	if err == nil {
		t.Fatalf("job finalized despite short kv-counts: %+v", res.Counters)
	}
	if !errors.Is(err, ErrCountMismatch) {
		t.Fatalf("err = %v, want ErrCountMismatch", err)
	}
	if partials != 0 {
		t.Fatalf("%d reduces finalized with short kv-counts", partials)
	}
}

// TestWorkerLossReexecution is the fault acceptance test: one worker is
// killed mid-job (its process and spills gone); the coordinator must
// re-execute the lost Map tasks on the survivor and complete the job
// with output identical to the in-process engine.
func TestWorkerLossReexecution(t *testing.T) {
	reg := metrics.New()
	// Replication off: a replica push that wins its race with the kill
	// would turn the loss into a re-fetch, and re-execution is the path
	// under test (TestDrainReplicaHandoff covers the other).
	c, workers := startCluster(t, 2, CoordinatorConfig{Metrics: reg, SpillReplicas: -1})

	// Kill w0 the moment its first Map result is accepted: the result's
	// spills die with it, before any dependent reduce can fetch them.
	c.onMapResult = func(_ string, _ int, worker string) {
		if worker == "w0" {
			workers[0].kill()
		}
	}
	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Reexecuted == 0 {
		t.Fatal("no map tasks were re-executed after worker loss")
	}
	if got := reg.Counter("sidrd_cluster_reexecuted_total").Value(); got == 0 {
		t.Fatal("sidrd_cluster_reexecuted_total stayed zero")
	}

	local := inProcessRun(t)
	keys, vals := flatten(res)
	if !reflect.DeepEqual(keys, local.Keys) || !reflect.DeepEqual(vals, local.Values) {
		t.Fatal("post-recovery output differs from in-process engine")
	}
}

// mapResp builds the MapResponse a worker would send for one attempt:
// spill metadata for every keyblock the split feeds.
func mapResp(j *clusterJob, split, attempt int) *MapResponse {
	resp := &MapResponse{Split: split, Attempt: attempt}
	for _, kb := range j.plan.Graph.SplitToKB[split] {
		resp.Outputs = append(resp.Outputs, KeyblockMeta{Keyblock: kb})
	}
	return resp
}

// TestStaleAttemptDiscarded pins attempt-ID idempotency: a Map result
// from a superseded attempt must not complete the task or decrement
// dependency counters.
func TestStaleAttemptDiscarded(t *testing.T) {
	plan, err := testJobPlan().NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(1)
	defer ex.Close()
	c := NewCoordinator(CoordinatorConfig{})
	j := &clusterJob{
		c:          c,
		spec:       JobSpec{ID: "job-stale", Plan: testJobPlan()},
		plan:       plan,
		ctx:        context.Background(),
		handle:     ex.NewHandle(exec.HandleOptions{}),
		maps:       make([]mapTask, len(plan.Splits)),
		enqueued:   make([]bool, plan.Part.NumKeyblocks()),
		outputs:    make([]ReduceResult, plan.Part.NumKeyblocks()),
		reduceDone: make([]bool, plan.Part.NumKeyblocks()),
		done:       make(chan struct{}),
	}
	defer j.handle.Close()
	j.reducesLeft = plan.Part.NumKeyblocks()
	before := append([]bool(nil), j.enqueued...)

	// The task was re-armed to attempt 1; a late attempt-0 result lands.
	j.maps[0].attempt = 1
	j.recordMapResult(0, 0, "w0", "http://stale", time.Now(), mapResp(j, 0, 0))
	if j.maps[0].done {
		t.Fatal("stale attempt completed the task")
	}
	if !reflect.DeepEqual(before, j.enqueued) {
		t.Fatal("stale attempt changed reduce enqueue state")
	}

	// The current attempt is accepted.
	j.recordMapResult(0, 1, "w0", "http://current", time.Now(), mapResp(j, 0, 1))
	if !j.maps[0].done || j.maps[0].url != "http://current" {
		t.Fatal("current attempt was not recorded")
	}
}

// TestHeartbeatEviction pins deadline-based eviction and re-registration.
func TestHeartbeatEviction(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: 50 * time.Millisecond})
	if err := c.Register("w0", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if n := c.AliveWorkers(); n != 1 {
		t.Fatalf("alive = %d after register, want 1", n)
	}
	if ok, _ := c.Heartbeat("w0"); !ok {
		t.Fatal("heartbeat for live worker rejected")
	}
	time.Sleep(120 * time.Millisecond)
	if n := c.AliveWorkers(); n != 0 {
		t.Fatalf("alive = %d after deadline, want 0", n)
	}
	if ok, _ := c.Heartbeat("w0"); ok {
		t.Fatal("heartbeat for evicted worker accepted; it must re-register")
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Alive {
		t.Fatalf("workers list = %+v, want one dead entry", ws)
	}
	if err := c.Register("w0", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if n := c.AliveWorkers(); n != 1 {
		t.Fatal("re-registration did not revive the worker")
	}
}

// TestLocalityAwarePlacement: a split whose block locations name a live
// worker must be placed on that worker.
func TestLocalityAwarePlacement(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	for _, n := range []string{"host-a", "host-b", "host-c"} {
		if err := c.Register(n, "http://"+n); err != nil {
			t.Fatal(err)
		}
	}
	name, _, _, err := c.pickWorker([]string{"host-b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "host-b" {
		t.Fatalf("placed on %q, want locality host %q", name, "host-b")
	}
	c.releaseWorker(name, false)

	// Without hints, least-loaded wins.
	n1, _, _, _ := c.pickWorker(nil, nil)
	n2, _, _, _ := c.pickWorker(nil, nil)
	if n1 == n2 {
		t.Fatalf("consecutive placements both chose %q despite load", n1)
	}
}

// TestNoWorkers: a run against an empty worker table fails fast.
func TestNoWorkers(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	_, err := runClusterJob(t, c, nil)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// syntheticJob builds a clusterJob over a hand-written dependency graph
// — 2 splits, each feeding both of 2 keyblocks — for white-box
// scheduling tests that must not depend on planner geometry.
func syntheticJob(c *Coordinator, h *exec.Handle) *clusterJob {
	ctx, cancel := context.WithCancel(context.Background())
	j := &clusterJob{
		c:    c,
		spec: JobSpec{ID: "job-synth"},
		plan: &core.Plan{Graph: &depgraph.Graph{
			SplitToKB:  [][]int{{0, 1}, {0, 1}},
			KBToSplits: [][]int{{0, 1}, {0, 1}},
		}},
		ctx:        ctx,
		cancel:     cancel,
		handle:     h,
		maps:       make([]mapTask, 2),
		enqueued:   make([]bool, 2),
		outputs:    make([]ReduceResult, 2),
		reduceDone: make([]bool, 2),
		done:       make(chan struct{}),
	}
	j.reducesLeft = 2
	return j
}

// TestRearmRepairsSiblingKeyblocks is the regression test for the
// re-execution hang: when rearm resets a split that feeds several
// keyblocks, the sibling keyblocks' enqueued flags must be cleared too,
// or recordMapResult skips them forever and the job never resolves.
func TestRearmRepairsSiblingKeyblocks(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	if err := c.Register("live", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(1)
	defer ex.Close()
	h := ex.NewHandle(exec.HandleOptions{})
	h.Close() // redispatches must not actually run during the test
	j := syntheticJob(c, h)

	// Both splits mapped — split 0 on a worker that is now gone, split 1
	// on the live one — and both reduces enqueued.
	j.maps[0] = mapTask{done: true, worker: "gone", url: "http://gone"}
	j.maps[1] = mapTask{done: true, worker: "live", url: "http://127.0.0.1:1"}
	j.enqueued[0], j.enqueued[1] = true, true

	// Reduce 0's fetch of split 0's spill failed; it rearms.
	j.rearm(0, nil, false)

	if j.maps[0].done || j.maps[0].attempt != 1 {
		t.Fatalf("lost split not reset for re-execution: %+v", j.maps[0])
	}
	if !j.maps[1].done || j.maps[1].attempt != 0 {
		t.Fatalf("healthy split was disturbed: %+v", j.maps[1])
	}
	if j.enqueued[0] {
		t.Fatal("rearmed keyblock still marked enqueued")
	}
	if j.enqueued[1] {
		t.Fatal("sibling keyblock not repaired: recordMapResult would skip it forever and the job would hang")
	}
	if j.counters.Reexecuted != 1 {
		t.Fatalf("reexecuted = %d, want 1", j.counters.Reexecuted)
	}
	// The redispatch hit the closed handle, which must fail the job
	// instead of leaving Run blocked on a task that will never run.
	select {
	case <-j.done:
	default:
		t.Fatal("rejected submission did not resolve the job")
	}
	if !errors.Is(j.err, ErrExecutorClosed) {
		t.Fatalf("err = %v, want ErrExecutorClosed", j.err)
	}
}

// TestStaleReduceRunClearsEnqueue: a queued runReduce that observes an
// open (re-executing) dependency must clear its enqueue flag so the
// fresh attempt's recordMapResult re-enqueues it.
func TestStaleReduceRunClearsEnqueue(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	ex := exec.New(1)
	defer ex.Close()
	h := ex.NewHandle(exec.HandleOptions{})
	defer h.Close()
	j := syntheticJob(c, h)
	j.maps[0] = mapTask{attempt: 1} // re-executing, not done
	j.maps[1] = mapTask{done: true, worker: "w", url: "http://w"}
	j.enqueued[0] = true

	j.runReduce(0) // dependency 0 open: must early-return

	if j.enqueued[0] {
		t.Fatal("stale reduce run left enqueued set; the keyblock would never re-enqueue")
	}
}

// TestReexecutedAttemptCannotDoubleSatisfy: readiness is recomputed
// from completed attempts, so a split that completed, was invalidated,
// and completed again counts once — a keyblock must not be enqueued
// while part of its I_ℓ is still open.
func TestReexecutedAttemptCannotDoubleSatisfy(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	ex := exec.New(1)
	defer ex.Close()
	h := ex.NewHandle(exec.HandleOptions{})
	h.Close() // keep enqueued reduces from actually running
	j := syntheticJob(c, h)

	// Split 0's re-executed attempt completes while split 1 is open.
	j.maps[0] = mapTask{attempt: 1}
	j.recordMapResult(0, 1, "w1", "http://w1", time.Now(), mapResp(j, 0, 1))
	if j.enqueued[0] || j.enqueued[1] {
		t.Fatal("keyblock enqueued before its full I_ℓ completed (double-satisfied dependency)")
	}
	// Split 1 completes: now both keyblocks are ready.
	j.recordMapResult(1, 0, "w1", "http://w1", time.Now(), mapResp(j, 1, 0))
	if !j.enqueued[0] || !j.enqueued[1] {
		t.Fatalf("keyblocks not enqueued after full I_ℓ completed: %v", j.enqueued)
	}
}

// TestClosedExecutorFailsJob: a job whose executor is shut down must
// fail with ErrExecutorClosed instead of blocking on tasks that will
// never run.
func TestClosedExecutorFailsJob(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	if err := c.Register("w0", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(1)
	ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Run(ctx, JobSpec{Plan: testJobPlan(), Dataset: testDataset(), Exec: ex})
	if !errors.Is(err, ErrExecutorClosed) {
		t.Fatalf("err = %v, want ErrExecutorClosed", err)
	}
}

// TestJobReleaseCleansWorkerState: once Run returns, the workers'
// cached job state and spill directories for that job are gone.
func TestJobReleaseCleansWorkerState(t *testing.T) {
	c, workers := startCluster(t, 1, CoordinatorConfig{})
	if _, err := runClusterJob(t, c, nil); err != nil {
		t.Fatal(err)
	}
	tw := workers[0]
	tw.w.mu.Lock()
	cached := len(tw.w.jobs)
	tw.w.mu.Unlock()
	if cached != 0 {
		t.Fatalf("worker still caches %d job(s) after release", cached)
	}
	entries, err := os.ReadDir(tw.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir not cleaned after release: %d entries", len(entries))
	}
}

// TestJobIDReuseReplacesStaleCache: a restarted coordinator that reuses
// a generated job ID with a different {plan,dataset} tuple must not be
// served the old job's cached plan or spills.
func TestJobIDReuseReplacesStaleCache(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Name: "w0", SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	req1 := &MapRequest{JobID: "job-1", Plan: testJobPlan(), Dataset: testDataset()}
	j1, err := w.jobFor(req1)
	if err != nil {
		t.Fatal(err)
	}
	// A pack the dead coordinator's job left behind.
	stale := filepath.Join(w.cfg.SpillDir, "job-1", "0-0.pack")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds := testDataset()
	ds.Seed++ // a new job wearing the recycled ID
	req2 := &MapRequest{JobID: "job-1", Plan: testJobPlan(), Dataset: ds}
	j2, err := w.jobFor(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j1 == j2 {
		t.Fatal("stale cache entry reused for a different plan/dataset")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale spill survived replacement; the new job could be served old data")
	}
	j3, err := w.jobFor(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j3 != j2 {
		t.Fatal("matching fingerprint did not reuse the cache entry")
	}
}
