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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/exec"
	"sidr/internal/mapreduce"
	"sidr/internal/metrics"
)

// The tests run a quickstart-shaped structural query — a daily mean over
// a seeded synthetic temperature grid — against real worker HTTP servers
// on distinct loopback ports.
const (
	testQueryText = "avg temp[0,0,0 : 30,24,24] es {1,4,4}"
	testSeed      = 42
)

// testShape is the extent of the tests' temperature grid.
var testShape = []int64{30, 24, 24}

func testJobPlan() JobPlan {
	return JobPlan{Query: testQueryText, Engine: "sidr", Reducers: 4, SplitPoints: 1500}
}

// testDataset writes the tests' temperature grid to a file under t's
// temp directory and returns the spec workers open it by.
func testDataset(t testing.TB) DatasetSpec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "temp.ncf")
	if err := datagen.WriteDataset(path, "temp", coords.NewShape(testShape...), datagen.Temperature(testSeed)); err != nil {
		t.Fatal(err)
	}
	return DatasetSpec{Kind: "file", Path: path, Variable: "temp"}
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
func startCluster(t testing.TB, n int, cfg CoordinatorConfig) (*Coordinator, []*testWorker) {
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
		if err := c.registerNode(fmt.Sprintf("w%d", i), tw.srv.URL, ""); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, tw)
	}
	return c, workers
}

func runClusterJob(t *testing.T, c *Coordinator, tweak func(*JobSpec)) (*jobResult, error) {
	t.Helper()
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	spec := JobSpec{Plan: testJobPlan(), Dataset: testDataset(t), Exec: ex}
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
	return inProcessEngineRun(t, sidr.SIDR)
}

func inProcessEngineRun(t *testing.T, engine sidr.Engine) *sidr.Result {
	t.Helper()
	gen := datagen.Temperature(testSeed)
	ds, err := sidr.Synthetic(testShape, func(k []int64) float64 { return gen(coords.Coord(k)) })
	if err != nil {
		t.Fatal(err)
	}
	q, err := sidr.ParseQuery(testQueryText)
	if err != nil {
		t.Fatal(err)
	}
	jp := testJobPlan()
	res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: engine, Reducers: jp.Reducers, SplitPoints: jp.SplitPoints})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// flatten orders a clustered job's outputs exactly like the sidr facade
// flattens in-process results: global row-major key sort.
func flatten(res *jobResult) ([][]int64, [][]float64) {
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
		if tw.w.mapsDone.Load() == 0 {
			t.Fatalf("worker did no map work; not a distributed run")
		}
	}
}

// TestClusteredBaselineEngine: the engine a clustered job names reaches
// the job loop the way it does in process. "hadoop" runs the global
// barrier — no keyblock finalizes before every Map task has completed —
// its output is byte-identical to the in-process run of the same engine,
// and the all-to-all shuffle still only moves spills that exist.
func TestClusteredBaselineEngine(t *testing.T) {
	c, workers := startCluster(t, 2, CoordinatorConfig{})
	var mapsAtFirstPartial atomic.Int64
	mapsAtFirstPartial.Store(-1)
	res, err := runClusterJob(t, c, func(spec *JobSpec) {
		spec.Plan.Engine = "hadoop"
		spec.OnPartial = func(ReduceResult) {
			mapsAtFirstPartial.CompareAndSwap(-1, workers[0].w.mapsDone.Load()+workers[1].w.mapsDone.Load())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	local := inProcessEngineRun(t, sidr.Hadoop)
	keys, vals := flatten(res)
	if len(keys) == 0 || !reflect.DeepEqual(keys, local.Keys) || !reflect.DeepEqual(vals, local.Values) {
		t.Fatalf("clustered hadoop output (%d rows) differs from the in-process hadoop engine's (%d rows)", len(keys), len(local.Keys))
	}
	if got, want := mapsAtFirstPartial.Load(), int64(len(res.Plan.Splits)); got < want {
		t.Fatalf("first keyblock finalized with %d of %d Map tasks done: not the global barrier", got, want)
	}
	if want := res.Plan.Graph.SIDRConnections(); res.Counters.Connections != want {
		t.Fatalf("shuffle connections = %d, want one per existing spill = %d", res.Counters.Connections, want)
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
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("sidrd_shuffle_fetch_seconds_count %d\n", res.Counters.ShuffleRequests); !strings.Contains(text.String(), want) {
		t.Fatalf("fetch latency histogram lacks %q", want)
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

// runOnTamperedWorker runs the test job under the named engine on a
// single worker served through wrap; partials counts the keyblocks that
// finalized.
func runOnTamperedWorker(t *testing.T, engine string, wrap func(*Worker) http.Handler) (res *jobResult, partials int64, err error) {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWorker(WorkerConfig{Name: "w0", SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv := httptest.NewServer(wrap(w))
	defer srv.Close()

	c := NewCoordinator(CoordinatorConfig{
		HeartbeatTimeout: 30 * time.Second,
		RetryBase:        time.Millisecond,
		RetryMax:         10 * time.Millisecond,
	})
	if err := c.registerNode("w0", srv.URL, ""); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	res, err = runClusterJob(t, c, func(spec *JobSpec) {
		spec.Plan.Engine = engine
		spec.OnPartial = func(ReduceResult) { n.Add(1) }
	})
	return res, n.Load(), err
}

// TestShortKVCountNeverFinalizes: a reduce whose annotation tally comes
// up short must never finalize — the job fails with
// mapreduce.ErrCountMismatch and no partial is ever delivered —
// whichever engine's barrier it runs under.
func TestShortKVCountNeverFinalizes(t *testing.T) {
	for _, engine := range []string{"sidr", "hadoop"} {
		t.Run(engine, func(t *testing.T) {
			res, partials, err := runOnTamperedWorker(t, engine, tamperSourceCount)
			if err == nil {
				t.Fatalf("job finalized despite short kv-counts: %+v", res.Counters)
			}
			if !errors.Is(err, mapreduce.ErrCountMismatch) {
				t.Fatalf("err = %v, want mapreduce.ErrCountMismatch", err)
			}
			if partials != 0 {
				t.Fatalf("%d reduces finalized with short kv-counts", partials)
			}
		})
	}
}

// TestUndercountingMapNeverFinalizes is the other half of the gate. A
// worker whose Map tasks undercount consistently — response metadata and
// spill header agree, both one short — passes every per-spill check of
// the shuffle; the job loop's tally against the planner's expected count
// must still refuse to finalize, again under either barrier.
func TestUndercountingMapNeverFinalizes(t *testing.T) {
	undercount := rewriteMapResponses(t, 0, func(mr *mapResponse) bool {
		for k := range mr.Outputs {
			if mr.Outputs[k].SourceCount > 0 {
				mr.Outputs[k].SourceCount--
			}
		}
		return true
	})
	for _, engine := range []string{"sidr", "hadoop"} {
		t.Run(engine, func(t *testing.T) {
			res, partials, err := runOnTamperedWorker(t, engine, func(w *Worker) http.Handler {
				return undercount(0, tamperSourceCount(w))
			})
			if err == nil {
				t.Fatalf("job finalized on undercounted Map outputs: %+v", res.Counters)
			}
			if !errors.Is(err, mapreduce.ErrCountMismatch) || !strings.Contains(err.Error(), "expected") {
				t.Fatalf("err = %v, want the job loop's tally-vs-expected mapreduce.ErrCountMismatch", err)
			}
			if partials != 0 {
				t.Fatalf("%d reduces finalized on undercounted Map outputs", partials)
			}
		})
	}
}

// TestWorkerLossReexecution is the fault acceptance test: one worker is
// killed mid-job (its process and spills gone); the coordinator must
// re-execute the lost Map tasks on the survivor and complete the job
// with output identical to the in-process engine.
func TestWorkerLossReexecution(t *testing.T) {
	reg := metrics.New()
	c, workers := startCluster(t, 2, CoordinatorConfig{Metrics: reg})

	// Kill w0 the moment it answers its first Map dispatch. The hook fires
	// before the result is recorded, let alone published to the job loop,
	// so the spills die before a dependent reduce can fetch them: the loss
	// can only be repaired by re-execution.
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

// TestCancelBeforeMapResultRecorded: the caller cancels in the window
// between a worker answering a Map dispatch and the coordinator recording
// the answer (jobs.Manager cancels this way on job cancel and shutdown).
// The dropped result leaves its task without an output; the run must end
// with the context's error — RunMap is on an executor worker, where a
// panic would take the whole process down.
func TestCancelBeforeMapResultRecorded(t *testing.T) {
	c, _ := startCluster(t, 2, CoordinatorConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.onMapResult = func(string, int, string) { cancel() }
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	_, err := c.Run(ctx, JobSpec{Plan: testJobPlan(), Dataset: testDataset(t), Exec: ex})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStaleAttemptDiscarded pins attempt-ID idempotency in the remote
// runner: a Map result from a superseded attempt must not become the
// task's output (what a loss re-opens is the job loop's side of the
// story: mapreduce's TestReexecutedAttemptCannotDoubleSatisfy).
func TestStaleAttemptDiscarded(t *testing.T) {
	plan, err := testJobPlan().newPlan()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	j := &clusterJob{
		c:    c,
		spec: JobSpec{ID: "job-stale", Plan: testJobPlan()},
		plan: plan,
		ctx:  context.Background(),
		maps: make([]mapTask, len(plan.Splits)),
	}
	// mapResp is what a worker would send for one attempt of split 0:
	// spill metadata for every keyblock the split feeds.
	mapResp := func(attempt int) *mapResponse {
		resp := &mapResponse{Split: 0, Attempt: attempt}
		for _, kb := range plan.Graph.SplitToKB[0] {
			resp.Outputs = append(resp.Outputs, keyblockMeta{Keyblock: kb})
		}
		return resp
	}

	// The task was re-executed as attempt 1; a late attempt-0 result lands.
	j.maps[0].attempt = 1
	if err := j.recordMapResult(0, 0, "w0", "http://stale", time.Now(), mapResp(0)); err != nil {
		t.Fatal(err)
	}
	if j.maps[0].out != nil {
		t.Fatal("stale attempt became the task's output")
	}

	// The current attempt is accepted.
	if err := j.recordMapResult(0, 1, "w0", "http://current", time.Now(), mapResp(1)); err != nil {
		t.Fatal(err)
	}
	if out := j.maps[0].out; out == nil || out.attempt != 1 || out.url != "http://current" {
		t.Fatalf("current attempt was not recorded: %+v", out)
	}
}

// TestHeartbeatEviction pins deadline-based eviction and re-registration.
func TestHeartbeatEviction(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: 50 * time.Millisecond})
	if err := c.registerNode("w0", "http://127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	if n := c.AliveWorkers(); n != 1 {
		t.Fatalf("alive = %d after register, want 1", n)
	}
	if ok, _ := c.heartbeat("w0"); !ok {
		t.Fatal("heartbeat for live worker rejected")
	}
	time.Sleep(120 * time.Millisecond)
	if n := c.AliveWorkers(); n != 0 {
		t.Fatalf("alive = %d after deadline, want 0", n)
	}
	if ok, _ := c.heartbeat("w0"); ok {
		t.Fatal("heartbeat for evicted worker accepted; it must re-register")
	}
	ws := c.workerTable()
	if len(ws) != 1 || ws[0].Alive {
		t.Fatalf("workers list = %+v, want one dead entry", ws)
	}
	if err := c.registerNode("w0", "http://127.0.0.1:1", ""); err != nil {
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
		if err := c.registerNode(n, "http://"+n, ""); err != nil {
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

// TestClosedExecutorFailsJob: a job whose executor is shut down must
// fail with the job loop's executor-closed error instead of blocking on
// tasks that will never run.
func TestClosedExecutorFailsJob(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	if err := c.registerNode("w0", "http://127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(1)
	ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Run(ctx, JobSpec{Plan: testJobPlan(), Dataset: testDataset(t), Exec: ex})
	if err == nil || !strings.Contains(err.Error(), "executor closed") {
		t.Fatalf("err = %v, want the job loop's executor-closed error", err)
	}
}

// closeFromTask closes an executor from inside one of its own tasks.
// Close joins the pool's workers, so it runs aside; the caller resumes
// once submissions are being rejected.
func closeFromTask(ex *exec.Executor) {
	go ex.Close()
	probe := ex.NewHandle(exec.HandleOptions{})
	defer probe.Close()
	for probe.Submit(exec.Map, 0, func() {}) {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestClosedExecutorFailsRun: every engine submits its tasks through the
// one job loop, so an executor closed before a run starts, or under it
// once the first Map has committed, fails the run with the job loop's
// one executor-closed error — promptly, never by blocking on tasks that
// will not run. (The in-process rows hung forever before the engines shared the
// loop.)
func TestClosedExecutorFailsRun(t *testing.T) {
	q, err := sidr.ParseQuery(testQueryText)
	if err != nil {
		t.Fatal(err)
	}
	jp := testJobPlan()
	const splitSize = 2 * 24 * 24 // jp.SplitPoints rounds down to whole rows
	// Each row sets up on the test goroutine and returns the run proper.
	inProcess := func(t *testing.T, ex *exec.Executor, midFlight bool) func() error {
		gen := datagen.Temperature(testSeed)
		var reads atomic.Int64
		var once sync.Once
		ds, err := sidr.Synthetic(testShape, func(k []int64) float64 {
			// One pool worker runs the Maps one after another: a read past
			// the first split's worth means the first Map has committed.
			if midFlight && reads.Add(1) > splitSize {
				once.Do(func() { closeFromTask(ex) })
			}
			return gen(coords.Coord(k))
		})
		if err != nil {
			t.Fatal(err)
		}
		return func() error {
			_, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: jp.Reducers, SplitPoints: jp.SplitPoints, Exec: ex})
			return err
		}
	}
	inProcessJoin := func(t *testing.T, ex *exec.Executor, _ bool) func() error {
		jq, err := sidr.ParseQuery("join javg a[0,0 : 48,32] es {8,8} with b[0,0 : 64,32] es {8,8}")
		if err != nil {
			t.Fatal(err)
		}
		side := func(rows int64, gen func(coords.Coord) float64) *sidr.Dataset {
			ds, err := sidr.Synthetic([]int64{rows, 32}, func(k []int64) float64 { return gen(coords.Coord(k)) })
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		a, b := side(48, datagen.Integers(11)), side(64, datagen.Zipf(23, 1.3))
		return func() error {
			_, err := sidr.RunJoin(a, b, jq, sidr.RunOptions{Engine: sidr.SIDR, MaxSkew: 16, Exec: ex})
			return err
		}
	}
	clustered := func(t *testing.T, ex *exec.Executor, midFlight bool) func() error {
		c, _ := startCluster(t, 2, CoordinatorConfig{})
		t.Cleanup(c.Close)
		if midFlight {
			var once sync.Once
			c.onMapResult = func(string, int, string) { once.Do(func() { closeFromTask(ex) }) }
		}
		return func() error {
			_, err := c.Run(context.Background(), JobSpec{Plan: jp, Dataset: testDataset(t), Exec: ex})
			return err
		}
	}
	for _, row := range []struct {
		name      string
		setup     func(*testing.T, *exec.Executor, bool) func() error
		midFlight bool
	}{
		{"in-process/closed-before", inProcess, false},
		{"in-process/closed-after-first-map", inProcess, true},
		{"in-process-join/closed-before", inProcessJoin, false},
		{"cluster/closed-before", clustered, false},
		{"cluster/closed-after-first-map", clustered, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ex := exec.New(1)
			t.Cleanup(ex.Close)
			if !row.midFlight {
				ex.Close()
			}
			run := row.setup(t, ex, row.midFlight)
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- run() }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "executor closed") {
					t.Fatalf("err = %v, want the job loop's executor-closed error", err)
				}
				if el := time.Since(start); el > time.Second {
					t.Fatalf("run took %v to fail", el)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run blocked on a closed executor")
			}
		})
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
	req1 := &mapRequest{JobID: "job-1", Plan: testJobPlan(), Dataset: testDataset(t)}
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

	// A new job wearing the recycled ID, over another dataset.
	req2 := &mapRequest{JobID: "job-1", Plan: testJobPlan(), Dataset: testDataset(t)}
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
