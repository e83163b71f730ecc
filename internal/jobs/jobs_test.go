package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/metrics"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// fakeProvider serves synthetic datasets by name; a per-point delay and
// an optional gate make runs slow or controllable.
type fakeProvider struct {
	mu       sync.Mutex
	acquired map[string]int
	shape    []int64
	delay    time.Duration
}

func newFakeProvider(shape []int64, delay time.Duration) *fakeProvider {
	return &fakeProvider{acquired: make(map[string]int), shape: shape, delay: delay}
}

func (p *fakeProvider) Acquire(name, variable string) (*sidr.Dataset, func(), error) {
	if name == "missing" {
		return nil, nil, fmt.Errorf("no dataset %q", name)
	}
	p.mu.Lock()
	p.acquired[name]++
	p.mu.Unlock()
	ds, err := sidr.Synthetic(p.shape, func(k []int64) float64 {
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
		return float64(k[0])
	})
	if err != nil {
		return nil, nil, err
	}
	return ds, func() { ds.Close() }, nil
}

// The fake has no file to hand a cluster worker, no index and no
// version, so its jobs run unpruned and always execute.
func (p *fakeProvider) DatasetSpec(name, variable string) (cluster.DatasetSpec, error) {
	return cluster.DatasetSpec{}, fmt.Errorf("no file for dataset %q", name)
}

func (p *fakeProvider) Index(name, variable string) *sidx.VarIndex { return nil }

func (p *fakeProvider) DatasetVersion(name, variable string) (string, bool) { return "", false }

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

const testQuery = "avg v[0,0 : 32,32] es {4,4}"

func TestJobLifecycleDone(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0), Metrics: reg})
	j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.Wait(context.Background())
	if err != nil || st != Done {
		t.Fatalf("Wait = %v, %v; want Done", st, err)
	}
	res := j.Result()
	if res == nil || len(res.Keys) != 64 {
		t.Fatalf("result keys = %v, want 64 rows", res)
	}
	snap := j.Snapshot()
	if snap.State != "done" || snap.Partials != 4 {
		t.Fatalf("snapshot = %+v, want done with 4 partials", snap)
	}
	if got := reg.Counter("sidrd_jobs_done_total").Value(); got != 1 {
		t.Fatalf("done counter = %d, want 1", got)
	}
}

func TestJobFailure(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0), Metrics: reg})
	j, err := m.Submit(Request{Dataset: "missing", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := j.Wait(context.Background())
	if st != stateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if j.Err() == nil {
		t.Fatal("failed job has nil error")
	}
	if got := reg.Counter("sidrd_jobs_failed_total").Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	if _, err := m.Submit(Request{Dataset: "d", Query: "not a query"}); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := m.Submit(Request{Dataset: "d", Query: testQuery, Engine: "spark"}); err == nil {
		t.Error("bad engine accepted")
	}
	if _, err := m.Submit(Request{Query: testQuery}); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestAdmissionControl(t *testing.T) {
	// One worker, queue depth 2, slow jobs: the 4th+ submission must be
	// rejected while the first is still running.
	reg := metrics.New()
	m := newTestManager(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    2,
		Datasets:      newFakeProvider([]int64{16, 16}, 50*time.Microsecond),
		Metrics:       reg,
	})
	var jobs []*Job
	var rejected int
	for i := 0; i < 8; i++ {
		j, err := m.Submit(Request{Dataset: "d", Query: "avg v[0,0 : 16,16] es {4,4}", Workers: 1})
		switch {
		case err == nil:
			jobs = append(jobs, j)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatal("no submission was rejected")
	}
	if got := reg.Counter("sidrd_jobs_rejected_total").Value(); got != int64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", got, rejected)
	}
	for _, j := range jobs {
		if st, err := j.Wait(context.Background()); err != nil || st != Done {
			t.Fatalf("job %s = %v, %v", j.ID, st, err)
		}
	}
}

func TestCancelRunning(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{256, 256}, 100*time.Microsecond), Metrics: reg})
	j, err := m.Submit(Request{Dataset: "d", Query: "avg v[0,0 : 256,256] es {4,4}", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to start running, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for j.currentState() == stateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	j.Cancel()
	st, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st != Cancelled {
		t.Fatalf("state = %v, want Cancelled", st)
	}
	if !errors.Is(j.Err(), context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", j.Err())
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	if got := reg.Counter("sidrd_jobs_cancelled_total").Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

func TestCancelQueued(t *testing.T) {
	m := newTestManager(t, Config{
		MaxConcurrent: 1,
		QueueDepth:    4,
		Datasets:      newFakeProvider([]int64{16, 16}, 100*time.Microsecond),
	})
	blocker, err := m.Submit(Request{Dataset: "d", Query: "avg v[0,0 : 16,16] es {4,4}", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Request{Dataset: "d", Query: "avg v[0,0 : 16,16] es {4,4}", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// As the server cancels: look the job up by id, then cancel it.
	j, err := m.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if st := queued.currentState(); st != Cancelled {
		t.Fatalf("queued job state = %v, want Cancelled immediately", st)
	}
	if st, _ := blocker.Wait(context.Background()); st != Done {
		t.Fatalf("blocker = %v, want Done", st)
	}
}

func TestStreamReplaysAndFollows(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j.Wait(context.Background()); st != Done {
		t.Fatalf("job = %v", st)
	}
	// Subscribe after completion: the full partial log replays.
	var got int32
	st, err := j.Stream(context.Background(), func(pr sidr.PartialResult) error {
		atomic.AddInt32(&got, 1)
		return nil
	})
	if err != nil || st != Done {
		t.Fatalf("Stream = %v, %v", st, err)
	}
	if got != 4 {
		t.Fatalf("replayed %d partials, want 4", got)
	}
}

func TestStreamFailedJobDrainsCleanly(t *testing.T) {
	// Stream's error reports transport problems only: draining a failed
	// job returns a nil error so callers can emit a terminal event; the
	// job's own error stays on Err.
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	j, err := m.Submit(Request{Dataset: "missing", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j.Wait(context.Background()); st != stateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	st, err := j.Stream(context.Background(), func(pr sidr.PartialResult) error { return nil })
	if st != stateFailed || err != nil {
		t.Fatalf("Stream = %v, %v; want failed, nil", st, err)
	}
	if j.Err() == nil {
		t.Fatal("failed job lost its error")
	}
}

func TestStreamAbortsOnContextDone(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	j, err := m.Submit(Request{Dataset: "d", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j.Wait(context.Background()); st != Done {
		t.Fatalf("job = %v", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Stream(ctx, func(pr sidr.PartialResult) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream with done ctx = %v, want context.Canceled", err)
	}
}

func TestJobTableRetention(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{RetainJobs: 2, Datasets: newFakeProvider([]int64{16, 16}, 0), Metrics: reg})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Submit(Request{Dataset: "d", Query: "avg v[0,0 : 16,16] es {4,4}"})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("job %d = %v (%v)", i, st, j.Err())
		}
		ids = append(ids, j.ID)
	}
	// The worker prunes right after finishing each job; wait for the
	// table to settle at the cap.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(m.Jobs()) > 2 {
		time.Sleep(2 * time.Millisecond)
	}
	snaps := m.Jobs()
	if len(snaps) != 2 {
		t.Fatalf("job table holds %d jobs, want 2", len(snaps))
	}
	if snaps[0].ID != ids[3] || snaps[1].ID != ids[4] {
		t.Fatalf("retained %s, %s; want the newest %s, %s", snaps[0].ID, snaps[1].ID, ids[3], ids[4])
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still resolvable: %v", err)
	}
	if got := reg.Counter("sidrd_jobs_evicted_total").Value(); got != 3 {
		t.Fatalf("evicted counter = %d, want 3", got)
	}
}

func TestSharedExecutorBoundsConcurrency(t *testing.T) {
	// Four jobs in flight at once, every Map/Reduce task of all of them
	// on one four-worker executor: task concurrency must never exceed
	// the pool size, however many jobs run.
	m := newTestManager(t, Config{
		MaxConcurrent: 4,
		ExecWorkers:   4,
		Datasets:      newFakeProvider([]int64{32, 32}, 5*time.Microsecond),
	})
	var js []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Request{Dataset: fmt.Sprintf("d%d", i), Query: "avg v[0,0 : 32,32] es {8,8}", Reducers: 4})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("job %s = %v (%v)", j.ID, st, j.Err())
		}
	}
	// A job is done the moment its last task says so — from inside that
	// task, a few instructions before the pool books it as finished.
	st := m.ExecStats()
	for deadline := time.Now().Add(5 * time.Second); st.Running != 0 && time.Now().Before(deadline); st = m.ExecStats() {
		time.Sleep(100 * time.Microsecond)
	}
	if st.Workers != 4 {
		t.Fatalf("executor workers = %d, want 4", st.Workers)
	}
	if st.PeakRunning > 4 {
		t.Fatalf("peak task concurrency %d exceeded the 4-worker pool", st.PeakRunning)
	}
	if st.Dispatched == 0 {
		t.Fatal("shared executor dispatched no tasks")
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("executor not quiescent after jobs drained: %+v", st)
	}
}

func TestShutdownRejectsAndDrains(t *testing.T) {
	m, err := NewManager(Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Request{Dataset: "d", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if st := j.currentState(); !st.terminal() {
		t.Fatalf("job not terminal after shutdown: %v", st)
	}
	if _, err := m.Submit(Request{Dataset: "d", Query: testQuery}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestSubmitPublishesNotifyHookFirst is the -race regression test for
// Submit installing a job's terminal hook after sending it on the
// queue: against a provider that fails at once, a worker pops and
// finishes the job while Submit is still between the send and the
// assignment. Every tenant slot must also be handed back, which only
// the hook does.
func TestSubmitPublishesNotifyHookFirst(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{4, 4}, 0), MaxConcurrent: 4})
	for i := 0; i < 2000; i++ {
		j, err := m.Submit(Request{Dataset: "missing", Query: testQuery, Tenant: "t"})
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			j.Wait(context.Background()) // FIFO queue: everything before j has been popped
		}
	}
	// Shutdown joins the job workers, and with them every terminal hook.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if left := m.inflight["t"]; left != 0 {
		t.Fatalf("%d tenant slots never released: a terminal hook was lost", left)
	}
}

// TestExecuteRunsTheParsedQuery: a job's query is parsed once, at Submit,
// and execution runs that value — never the request text again.
func TestExecuteRunsTheParsedQuery(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newFakeProvider([]int64{32, 32}, 0)})
	q, err := query.Parse(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("job-parsed", Request{Dataset: "d", Query: "no longer parseable"}, q, sidr.SIDR)
	res, err := m.execute(j)
	if err != nil {
		t.Fatalf("execute re-read the request text: %v", err)
	}
	if len(res.Keys) != 64 {
		t.Fatalf("result has %d rows, want 64", len(res.Keys))
	}
}
