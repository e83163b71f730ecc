package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr/internal/exec"
	"sidr/internal/metrics"
	"sidr/internal/spillstore"
)

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDrainReplicaHandoff is the elastic-membership flagship: with the
// shuffle gated shut, every Map completes and replicates, the worker
// hosting half the spills drains and is released (drain ≠ death), a
// late worker registers mid-reduce, the drained worker is then killed
// outright, and only after that does the shuffle open. Every dependency
// on the dead worker must be served from its replica — zero
// re-executions, byte-identical output — and the late registrant must
// have received no Map work.
func TestDrainReplicaHandoff(t *testing.T) {
	reg := metrics.New()
	gate := make(chan struct{})
	w0dead := make(chan struct{}) // lets w0's gated handlers abort so its server can close
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/shuffle") {
				if i == 0 {
					select {
					case <-w0dead:
						http.Error(rw, "killed", http.StatusServiceUnavailable)
						return
					case <-gate:
					}
					select {
					case <-w0dead:
						http.Error(rw, "killed", http.StatusServiceUnavailable)
						return
					default:
					}
				} else {
					select {
					case <-gate:
					case <-r.Context().Done():
						return
					}
				}
			}
			h.ServeHTTP(rw, r)
		})
	}
	c, workers := startChaosCluster(t, 2, CoordinatorConfig{Metrics: reg}, nil, wrap)

	type outcome struct {
		res *JobResult
		err error
	}
	done := make(chan outcome, 1)
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := c.Run(ctx, JobSpec{Plan: testJobPlan(), Dataset: testDataset(), Exec: ex})
		done <- outcome{res, err}
	}()

	// All 15 splits (30 rows / 2 per split) must commit and replicate
	// before anything else moves; the gate keeps every reduce fetch
	// pending meanwhile.
	waitFor(t, 10*time.Second, "all replicas pushed", func() bool {
		return reg.Counter("sidrd_cluster_replica_pushes_total").Value() >= 15
	})

	// Drain w0 and wait for its release. Its spills all have replicas on
	// w1, so the drain must complete even though no reduce has fetched a
	// byte yet — and must not count as a death.
	if err := c.Drain("w0"); err != nil {
		t.Fatalf("Drain(w0): %v", err)
	}
	if err := c.Drain("w0"); err != nil {
		t.Fatalf("second Drain(w0) not idempotent: %v", err)
	}
	waitFor(t, 10*time.Second, "w0 drained", func() bool {
		for _, wi := range c.Workers() {
			if wi.Name == "w0" {
				return wi.Drained
			}
		}
		return false
	})

	// A worker registering mid-reduce joins live membership but gets no
	// Map work — the maps are long done.
	lateDir := t.TempDir()
	late, err := NewWorker(WorkerConfig{Name: "late", SpillDir: lateDir})
	if err != nil {
		t.Fatal(err)
	}
	lateSrv := httptest.NewServer(late)
	t.Cleanup(lateSrv.Close)
	t.Cleanup(func() { late.Close() })
	if err := c.Register("late", lateSrv.URL); err != nil {
		t.Fatal(err)
	}

	// Now the drained worker dies for real; its spills are gone.
	close(w0dead)
	workers[0].kill()
	close(gate)

	out := <-done
	if out.err != nil {
		t.Fatalf("job failed: %v", out.err)
	}
	assertMatchesInProcess(t, out.res)
	if out.res.Counters.Reexecuted != 0 {
		t.Fatalf("Reexecuted = %d; replica fall-back should have avoided all re-execution", out.res.Counters.Reexecuted)
	}
	if out.res.Counters.ReplicaFetchFallbacks == 0 {
		t.Fatal("no dependency was served from a replica despite the primary dying")
	}
	if out.res.Counters.ReplicaPushes < 15 {
		t.Fatalf("ReplicaPushes = %d, want >= 15", out.res.Counters.ReplicaPushes)
	}
	// The daemon-wide byte counter covers at least the job's own count
	// (a push lands in the metric just after the job's counters).
	waitFor(t, 10*time.Second, "replica bytes counted", func() bool {
		return reg.Counter("sidrd_cluster_replica_bytes_total").Value() >= out.res.Counters.ReplicaBytes
	})
	if out.res.Counters.ReplicaBytes == 0 {
		t.Fatal("15 replicas pushed no bytes")
	}
	if n := late.MapsDone(); n != 0 {
		t.Fatalf("late worker executed %d maps; mid-reduce registrants must get none", n)
	}
}

// TestCorruptReplicaIsRefused pins what handleReplicate's verification
// is for. Every pack a source serves carries one flipped payload bit
// inside its first entry; the pack's own trailer CRC covers only the
// directory, so Install accepts the copy. The target must refuse it
// (502) through the spill's block checksums and release the attempt from
// its store, the coordinator must record no replica candidate, and the
// job — its shuffle gated until every push has been refused — must still
// finish byte-identical to in-process from the primaries.
func TestCorruptReplicaIsRefused(t *testing.T) {
	const jobID = "corrupt-replica"
	type refusal struct {
		target int
		req    ReplicateRequest
		msg    string
	}
	var (
		mu       sync.Mutex
		refused  []refusal
		accepted int
	)
	gate := make(chan struct{})
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasPrefix(r.URL.Path, "/v1/shuffle"):
				select {
				case <-gate:
				case <-r.Context().Done():
					return
				}
				h.ServeHTTP(rw, r)
			case strings.HasPrefix(r.URL.Path, "/v1/pack/"):
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				// The first entry opens the pack: a 28-byte spill header, a
				// 16-byte block header, then the block's payload.
				if rec.Code != http.StatusOK || len(body) <= 28+16 || binary.LittleEndian.Uint32(body[24:28]) == 0 {
					t.Errorf("pack %s: status %d, %d bytes — no block to damage", r.URL.Path, rec.Code, len(body))
				} else {
					body[28+16] ^= 0x04
				}
				rw.WriteHeader(rec.Code)
				rw.Write(body)
			case r.URL.Path == "/v1/replicate":
				raw, _ := io.ReadAll(r.Body)
				var req ReplicateRequest
				json.Unmarshal(raw, &req)
				r.Body = io.NopCloser(bytes.NewReader(raw))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				mu.Lock()
				if rec.Code == http.StatusBadGateway {
					refused = append(refused, refusal{i, req, rec.Body.String()})
				} else {
					accepted++
				}
				mu.Unlock()
				rw.WriteHeader(rec.Code)
				rw.Write(rec.Body.Bytes())
			default:
				h.ServeHTTP(rw, r)
			}
		})
	}
	reg := metrics.New()
	c, workers := startChaosCluster(t, 2, CoordinatorConfig{Metrics: reg}, nil, wrap)

	type outcome struct {
		res *JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runClusterJob(t, c, func(spec *JobSpec) { spec.ID = jobID })
		done <- outcome{res, err}
	}()

	// 15 splits, one push each, one possible target each: every push is
	// refused while the gate holds every reduce.
	waitFor(t, 10*time.Second, "every replica push refused", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(refused)+accepted >= 15
	})
	// A failure below must not leave the job waiting at the gate, nor a
	// handler waiting for mu.
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	mu.Lock()
	pushes, acks := refused, accepted
	mu.Unlock()
	if acks != 0 {
		t.Fatalf("%d corrupt replicas were acknowledged", acks)
	}
	for _, r := range pushes {
		if !strings.Contains(r.msg, "replica verify") {
			t.Fatalf("split %d refused before verification (%q): the damage must pass Install", r.req.Split, r.msg)
		}
		for kb := 0; kb < testJobPlan().Reducers; kb++ {
			if _, _, err := workers[r.target].w.store.Open(jobID, r.req.Split, r.req.Attempt, kb); !errors.Is(err, spillstore.ErrNotFound) {
				t.Fatalf("refused replica of split %d kb %d still in w%d's store (Open err = %v)", r.req.Split, kb, r.target, err)
			}
		}
	}
	openGate()

	out := <-done
	if out.err != nil {
		t.Fatalf("job failed: %v", out.err)
	}
	assertMatchesInProcess(t, out.res)
	if n := out.res.Counters.ReplicaPushes; n != 0 || reg.Counter("sidrd_cluster_replica_pushes_total").Value() != 0 {
		t.Fatalf("coordinator recorded %d replica candidates from refused pushes", n)
	}
	if out.res.Counters.Reexecuted != 0 || out.res.Counters.ReplicaFetchFallbacks != 0 {
		t.Fatalf("counters = %+v; the primaries were intact and no replica existed", out.res.Counters)
	}
}

// TestDrainLastLocalWorker: when the only split-local worker is
// draining, dispatch must fall back to a healthy remote worker rather
// than the draining one (or fail).
func TestDrainLastLocalWorker(t *testing.T) {
	reg := metrics.New()
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute, Metrics: reg})
	t.Cleanup(c.Close)
	if err := c.RegisterNode("wa", "http://wa", "node-a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterNode("wb", "http://wb", "node-b"); err != nil {
		t.Fatal(err)
	}
	name, _, local, err := c.pickWorker([]string{"node-a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "wa" || !local {
		t.Fatalf("pick = %q (local=%v), want node-local wa", name, local)
	}
	c.releaseWorker(name, false)

	if err := c.Drain("wa"); err != nil {
		t.Fatal(err)
	}
	name, _, local, err = c.pickWorker([]string{"node-a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if name != "wb" || local {
		t.Fatalf("pick = %q (local=%v), want remote wb while wa drains", name, local)
	}
	c.releaseWorker(name, false)
	if got := reg.Counter("sidrd_cluster_dispatch_local_total").Value(); got != 1 {
		t.Fatalf("dispatch_local_total = %d, want 1", got)
	}
	if got := reg.Counter("sidrd_cluster_dispatch_remote_total").Value(); got != 1 {
		t.Fatalf("dispatch_remote_total = %d, want 1", got)
	}
}

// TestDrainEndpoint drives the drain state machine over HTTP: POST
// /v1/drain is idempotent, 404s for unknown workers, and the heartbeat
// response tells the draining worker about it.
func TestDrainEndpoint(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	t.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	if err := c.Register("w0", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/drain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"nobody"}`); code != http.StatusNotFound {
		t.Fatalf("drain of unknown worker = %d, want 404", code)
	}
	if code := post(`{"name":"w0"}`); code != http.StatusOK {
		t.Fatalf("drain = %d, want 200", code)
	}
	if code := post(`{"name":"w0"}`); code != http.StatusOK {
		t.Fatalf("double drain = %d, want 200 (idempotent)", code)
	}
	ok, draining := c.Heartbeat("w0")
	if ok && !draining {
		t.Fatal("heartbeat of a draining worker did not carry the draining flag")
	}
	if !ok && !draining {
		t.Fatal("released drained worker answered as plain unknown; it would re-register and undo the drain")
	}
	// An idle worker has nothing to hand off, so the watcher releases it
	// within a poll tick. From then on its heartbeats must say "drained,
	// exit" (410 on the wire) — never "unknown, re-register".
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, draining = c.Heartbeat("w0")
		if !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle drained worker never released")
		}
		time.Sleep(drainPoll)
	}
	if !draining {
		t.Fatal("post-release heartbeat lost the draining flag")
	}
	resp, err := http.Post(srv.URL+"/v1/cluster/heartbeat", "application/json",
		strings.NewReader(`{"name":"w0"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("post-release heartbeat = %d, want 410", resp.StatusCode)
	}
}

// TestDrainIdleWorkerExitsInsteadOfRejoining drives the full worker
// loop: a coordinator-initiated drain of an idle worker completes (and
// releases the worker) before the worker's next heartbeat, so the
// worker only ever learns of the drain from the post-release 410. It
// must exit its Start loop rather than re-register as a fresh worker.
func TestDrainIdleWorkerExitsInsteadOfRejoining(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	t.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	dir := t.TempDir()
	w, err := NewWorker(WorkerConfig{
		Name: "idle", SpillDir: dir,
		AdvertiseURL:   "http://127.0.0.1:1",
		CoordinatorURL: srv.URL,
		Heartbeat:      200 * time.Millisecond, // >> drainPoll: release wins the race
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	started := make(chan struct{})
	go func() {
		w.Start(ctx)
		close(started)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for c.AliveWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Drain("idle"); err != nil {
		t.Fatal(err)
	}

	// The worker's loop must terminate on the drain verdict...
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker loop still running after drain+release")
	}
	select {
	case <-w.DrainSignal():
	default:
		t.Fatal("drain was never signaled to the worker")
	}
	// ...and the worker-side Drain must complete against the released
	// record (idempotent 200, then the 410 release verdict).
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := w.Drain(dctx); err != nil {
		t.Fatalf("worker-side drain after release: %v", err)
	}
	// No fresh registration may have snuck in behind the drain.
	for _, wi := range c.Workers() {
		if wi.Name == "idle" && wi.Alive {
			t.Fatal("drained idle worker re-registered as alive")
		}
	}
}

// TestChurnSoak runs jobs back-to-back while the membership churns
// continuously underneath them — a new worker registers and an old one
// drains every few tens of milliseconds, plus one outright SIGKILL —
// and requires byte-identical output from every job, no orphaned
// spill temp files, and fully released spill directories on the
// workers still alive at the end.
func TestChurnSoak(t *testing.T) {
	reg := metrics.New()
	c, seed := startCluster(t, 3, CoordinatorConfig{Metrics: reg})
	t.Cleanup(c.Close)

	type member struct {
		name string
		tw   *testWorker
	}
	var (
		mu    sync.Mutex
		alive []member
	)
	for i, tw := range seed {
		alive = append(alive, member{fmt.Sprintf("w%d", i), tw})
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	var ticks atomic.Int64
	churn.Add(1)
	go func() {
		defer churn.Done()
		next := 0
		var draining []member
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			ticks.Add(1)
			// Join: a brand-new worker registers mid-job.
			dir, err := os.MkdirTemp(t.TempDir(), "churn-*")
			if err != nil {
				t.Error(err)
				return
			}
			name := fmt.Sprintf("churn-%d", next)
			next++
			w, err := NewWorker(WorkerConfig{Name: name, SpillDir: dir})
			if err != nil {
				t.Error(err)
				return
			}
			tw := &testWorker{w: w, srv: httptest.NewServer(w), dir: dir}
			t.Cleanup(tw.kill)
			t.Cleanup(func() { w.Close() })
			if err := c.Register(name, tw.srv.URL); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			alive = append(alive, member{name, tw})

			// Leave: drain the oldest member (keeping at least two), and
			// once mid-soak kill one with no drain at all.
			if len(alive) > 2 {
				old := alive[0]
				alive = alive[1:]
				if i == 2 {
					old.tw.kill()
				} else if err := c.Drain(old.name); err == nil {
					draining = append(draining, old)
				}
			}
			mu.Unlock()

			// Reap: drained members lose their disk, like a process exit.
			var still []member
			for _, m := range draining {
				released := false
				for _, wi := range c.Workers() {
					if wi.Name == m.name && wi.Drained {
						released = true
					}
				}
				if released {
					m.tw.kill()
				} else {
					still = append(still, m)
				}
			}
			draining = still
		}
	}()

	// Keep running jobs until the churn schedule has demonstrably done
	// its work: at least 8 join/leave cycles, which covers the tick-2
	// hard kill and several drains.
	for round := 0; round < 4 || (ticks.Load() < 8 && round < 40); round++ {
		res, err := runClusterJob(t, c, nil)
		if err != nil {
			t.Fatalf("round %d failed under churn: %v", round, err)
		}
		assertMatchesInProcess(t, res)
	}
	close(stop)
	churn.Wait()
	if ticks.Load() < 8 {
		t.Fatalf("churn driver only ran %d cycles", ticks.Load())
	}

	// Join release broadcasts, then audit the survivors: every job was
	// released, so their spill trees must hold no packs and no temps.
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, m := range alive {
		filepath.WalkDir(m.tw.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".pack-") {
				t.Errorf("worker %s: orphan temp %s survived the soak", m.name, path)
			} else if strings.HasSuffix(d.Name(), ".pack") {
				t.Errorf("worker %s: unreleased pack %s survived the soak", m.name, path)
			}
			return nil
		})
	}
}
