package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr/internal/exec"
	"sidr/internal/metrics"
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

// workerRow returns one worker's row of the coordinator's worker table.
func workerRow(c *Coordinator, name string) workerInfo {
	for _, wi := range c.workerTable() {
		if wi.Name == name {
			return wi
		}
	}
	return workerInfo{}
}

// TestDrainByConsumption is the elastic-membership flagship: with the
// shuffle gated shut, every Map completes and w0 drains. No copy of its
// spills exists anywhere else, so while a reduce still needs one w0 must
// stay draining — serving, not released — however long the gate holds;
// once the gate opens and the reduces have consumed its spills it is
// released. Drain is not death: nothing re-executes, the output is
// byte-identical, and a worker registering mid-reduce gets no Map work.
func TestDrainByConsumption(t *testing.T) {
	gate := make(chan struct{})
	wrap := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/shuffle") {
				select {
				case <-gate:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(rw, r)
		})
	}
	c, _ := startChaosCluster(t, 2, CoordinatorConfig{}, nil, wrap)
	plan, err := testJobPlan().newPlan()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hosted := make(map[int]string) // split → worker, as accepted
	c.onMapResult = func(_ string, split int, worker string) {
		mu.Lock()
		hosted[split] = worker
		mu.Unlock()
	}

	type outcome struct {
		res *jobResult
		err error
	}
	done := make(chan outcome, 1)
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	spec := JobSpec{Plan: testJobPlan(), Dataset: testDataset(t), Exec: ex}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := c.Run(ctx, spec)
		done <- outcome{res, err}
	}()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()

	// Every split must be mapped before anything else moves; the gate
	// keeps every reduce fetch pending meanwhile.
	waitFor(t, 10*time.Second, "every split mapped", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(hosted) == len(plan.Splits)
	})
	mu.Lock()
	onW0 := 0
	for _, w := range hosted {
		if w == "w0" {
			onW0++
		}
	}
	mu.Unlock()
	if onW0 == 0 {
		t.Fatal("w0 hosts no spill; the drain would have nothing to hand off")
	}

	if err := c.drain("w0"); err != nil {
		t.Fatalf("Drain(w0): %v", err)
	}
	if err := c.drain("w0"); err != nil {
		t.Fatalf("second Drain(w0) not idempotent: %v", err)
	}
	// No reduce has fetched a byte, so every spill w0 hosts is still
	// needed: w0 must keep draining through many watcher polls.
	for until := time.Now().Add(250 * time.Millisecond); time.Now().Before(until); time.Sleep(drainPoll) {
		if wi := workerRow(c, "w0"); !wi.Alive || !wi.Draining || wi.Drained {
			t.Fatalf("w0 = %+v while reduces still need its %d spills; want draining, alive, not drained", wi, onW0)
		}
	}

	// A worker registering mid-reduce joins live membership but gets no
	// Map work — the maps are long done.
	late, err := NewWorker(WorkerConfig{Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	lateSrv := httptest.NewServer(late)
	t.Cleanup(lateSrv.Close)
	t.Cleanup(func() { late.Close() })
	if err := c.register("late", lateSrv.URL); err != nil {
		t.Fatal(err)
	}

	openGate()
	out := <-done
	if out.err != nil {
		t.Fatalf("job failed: %v", out.err)
	}
	waitFor(t, 10*time.Second, "w0 released once its spills were consumed", func() bool {
		return workerRow(c, "w0").Drained
	})
	assertMatchesInProcess(t, out.res)
	if out.res.Counters.Reexecuted != 0 {
		t.Fatalf("Reexecuted = %d; a drain hands off by consumption and re-executes nothing", out.res.Counters.Reexecuted)
	}
	if n := late.mapsDone.Load(); n != 0 {
		t.Fatalf("late worker executed %d maps; mid-reduce registrants must get none", n)
	}
}

// TestDeathReexecutesOnlyUncommittedIl is §6's claim on real processes:
// a lost spill costs the re-execution of its split only if a keyblock
// that has not committed still depends on it. Keyblock 0 is let through
// the shuffle and commits while every other keyblock's fetches are held;
// then the worker hosting a split that feeds keyblock 0 alone dies. Of
// the splits it hosted, exactly those in some uncommitted keyblock's
// I_ℓ must re-execute — not the ones only the committed keyblock read —
// and the output must stay byte-identical.
func TestDeathReexecutesOnlyUncommittedIl(t *testing.T) {
	plan, err := testJobPlan().newPlan()
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph
	only0 := -1 // a split whose output keyblock 0 alone reads
	for s, kbs := range g.SplitToKB {
		if len(kbs) == 1 && kbs[0] == 0 {
			only0 = s
			break
		}
	}
	if only0 < 0 || len(g.KBToSplits) < 2 {
		t.Fatalf("test plan has no split feeding keyblock 0 alone (%d keyblocks)", len(g.KBToSplits))
	}

	gate := make(chan struct{})
	dead := make([]chan struct{}, 2) // closed: the worker's handlers abort like a dead process
	for i := range dead {
		dead[i] = make(chan struct{})
	}
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			select {
			case <-dead[i]:
				panic(http.ErrAbortHandler)
			default:
			}
			if r.URL.Path == shuffleBatchPath {
				raw, _ := io.ReadAll(r.Body)
				var req batchFetchRequest
				if json.Unmarshal(raw, &req) == nil && req.Keyblock != 0 {
					select {
					case <-gate:
					case <-dead[i]:
						panic(http.ErrAbortHandler)
					case <-r.Context().Done():
						return
					}
				}
				r.Body = io.NopCloser(bytes.NewReader(raw))
			}
			h.ServeHTTP(rw, r)
		})
	}
	c, workers := startChaosCluster(t, 2, CoordinatorConfig{}, nil, wrap)
	var mu sync.Mutex
	hosted := make(map[int]string) // split → worker, as accepted
	committed := make(map[int]bool)
	c.onMapResult = func(_ string, split int, worker string) {
		mu.Lock()
		hosted[split] = worker
		mu.Unlock()
	}

	type outcome struct {
		res *jobResult
		err error
	}
	done := make(chan outcome, 1)
	ex := exec.New(4)
	t.Cleanup(ex.Close)
	spec := JobSpec{Plan: testJobPlan(), Dataset: testDataset(t), Exec: ex,
		OnPartial: func(rr ReduceResult) {
			mu.Lock()
			committed[rr.Keyblock] = true
			mu.Unlock()
		}}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := c.Run(ctx, spec)
		done <- outcome{res, err}
	}()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()

	waitFor(t, 10*time.Second, "keyblock 0 committed and every split mapped", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return committed[0] && len(hosted) == len(plan.Splits)
	})
	mu.Lock()
	victim := hosted[only0]
	need := make(map[int]bool) // the victim's splits an uncommitted keyblock reads
	hostedByVictim := 0
	for _, w := range hosted {
		if w == victim {
			hostedByVictim++
		}
	}
	for kb, splits := range g.KBToSplits {
		if committed[kb] {
			continue
		}
		for _, s := range splits {
			if hosted[s] == victim {
				need[s] = true
			}
		}
	}
	mu.Unlock()
	t.Logf("%s hosted %d splits; %d of them feed an uncommitted keyblock", victim, hostedByVictim, len(need))
	vi, err := strconv.Atoi(strings.TrimPrefix(victim, "w"))
	if err != nil {
		t.Fatalf("victim %q is not a started worker", victim)
	}
	close(dead[vi])
	workers[vi].kill()
	openGate()

	out := <-done
	if out.err != nil {
		t.Fatalf("job failed: %v", out.err)
	}
	assertMatchesInProcess(t, out.res)
	if got := out.res.Counters.Reexecuted; got != int64(len(need)) {
		t.Fatalf("Reexecuted = %d, want %d: the splits %s hosted that an uncommitted keyblock reads (it hosted %d)",
			got, len(need), victim, hostedByVictim)
	}
}

// TestDrainingWorkerNeverPicked: pickWorker orders live workers by
// least running, then name, through three tiers — healthy and allowed,
// quarantined and allowed, any live — and never picks a draining worker
// in any of them.
func TestDrainingWorkerNeverPicked(t *testing.T) {
	newPair := func(t *testing.T) *Coordinator {
		c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
		t.Cleanup(c.Close)
		for _, n := range []string{"wa", "wb"} {
			if err := c.register(n, "http://"+n); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	// Two idle workers give wa by name; once wa drains, wb.
	c := newPair(t)
	name, _, err := c.pickWorker(nil)
	if err != nil || name != "wa" {
		t.Fatalf("pick = %q, %v; want wa by name", name, err)
	}
	c.releaseWorker(name, false)
	if err := c.drain("wa"); err != nil {
		t.Fatal(err)
	}
	name, _, err = c.pickWorker(nil)
	if err != nil || name != "wb" {
		t.Fatalf("pick = %q, %v; want wb while wa drains", name, err)
	}
	c.releaseWorker(name, false)

	// The last tier (TestQuarantineHysteresis covers the first two),
	// then each tier with wa draining where it would otherwise win.
	// want "" means ErrNoWorkers.
	for _, tc := range []struct {
		name                       string
		draining, quarantined, not []string
		want                       string
	}{
		{name: "excluded before none", not: []string{"wa", "wb"}, want: "wa"},
		{name: "draining in the healthy tier", draining: []string{"wa"}, want: "wb"},
		{name: "draining in the quarantined tier", draining: []string{"wa"}, quarantined: []string{"wa", "wb"}, want: "wb"},
		{name: "draining in the excluded tier", draining: []string{"wa"}, not: []string{"wa", "wb"}, want: "wb"},
		{name: "only draining", draining: []string{"wa", "wb"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newPair(t)
			c.mu.Lock()
			for _, n := range tc.draining {
				c.workers[n].draining = true
			}
			for _, n := range tc.quarantined {
				c.workers[n].quarantined = true
			}
			c.mu.Unlock()
			not := make(map[string]bool)
			for _, n := range tc.not {
				not[n] = true
			}
			name, _, err := c.pickWorker(not)
			if tc.want == "" {
				if !errors.Is(err, ErrNoWorkers) {
					t.Fatalf("pick = %q, %v; want ErrNoWorkers", name, err)
				}
				return
			}
			if err != nil || name != tc.want {
				t.Fatalf("pick = %q, %v; want %q", name, err, tc.want)
			}
		})
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

	if err := c.register("w0", "http://127.0.0.1:1"); err != nil {
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
	ok, draining := c.heartbeat("w0")
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
		ok, draining = c.heartbeat("w0")
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

	w, err := NewWorker(WorkerConfig{
		Name:           "idle",
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
	if err := c.drain("idle"); err != nil {
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
	for _, wi := range c.workerTable() {
		if wi.Name == "idle" && wi.Alive {
			t.Fatal("drained idle worker re-registered as alive")
		}
	}
}

// TestChurnSoak runs jobs back-to-back while the membership churns
// continuously underneath them — a new worker registers and an old one
// drains every few tens of milliseconds, plus one outright SIGKILL —
// and requires byte-identical output from every job and, on the
// workers still alive at the end, spill stores that hold nothing.
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
			name := fmt.Sprintf("churn-%d", next)
			next++
			w, err := NewWorker(WorkerConfig{Name: name})
			if err != nil {
				t.Error(err)
				return
			}
			tw := &testWorker{w: w, srv: httptest.NewServer(w)}
			t.Cleanup(tw.kill)
			t.Cleanup(func() { w.Close() })
			if err := c.register(name, tw.srv.URL); err != nil {
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
				} else if err := c.drain(old.name); err == nil {
					draining = append(draining, old)
				}
			}
			mu.Unlock()

			// Reap: drained members go away, like a process exit.
			var still []member
			for _, m := range draining {
				released := false
				for _, wi := range c.workerTable() {
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
	// hard kill and several drains. The cap is a time, not a number of
	// rounds: jobs fast enough to run 40 rounds inside eight 30 ms ticks
	// would end the loop before the churn had done its work.
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; round < 4 || (ticks.Load() < 8 && time.Now().Before(deadline)); round++ {
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
	// released, so their stores must hold no packs and no bytes.
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, m := range alive {
		assertStoreEmpty(t, m.name, m.tw.w)
	}
}
