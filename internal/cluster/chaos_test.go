package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr/internal/faultinject"
	"sidr/internal/metrics"
)

// startChaosCluster is startCluster with per-worker knobs: mutate edits
// each worker's config (e.g. attaches a fault injector) and wrap
// optionally interposes on the worker's HTTP handler.
func startChaosCluster(t *testing.T, n int, cfg CoordinatorConfig,
	mutate func(i int, wc *WorkerConfig),
	wrap func(i int, h http.Handler) http.Handler) (*Coordinator, []*testWorker) {
	t.Helper()
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 30 * time.Second
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
		cfg.RetryMax = 20 * time.Millisecond
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	var workers []*testWorker
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		wc := WorkerConfig{Name: fmt.Sprintf("w%d", i), SpillDir: dir}
		if mutate != nil {
			mutate(i, &wc)
		}
		w, err := NewWorker(wc)
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = w
		if wrap != nil {
			if wrapped := wrap(i, h); wrapped != nil {
				h = wrapped
			}
		}
		tw := &testWorker{w: w, dir: dir, srv: httptest.NewServer(h)}
		t.Cleanup(tw.kill)
		t.Cleanup(func() { tw.w.Close() })
		if err := c.registerNode(wc.Name, tw.srv.URL, ""); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, tw)
	}
	return c, workers
}

// assertMatchesInProcess fails unless the clustered result is
// byte-identical to the in-process engine on the same query.
func assertMatchesInProcess(t *testing.T, res *jobResult) {
	t.Helper()
	local := inProcessRun(t)
	keys, vals := flatten(res)
	if !reflect.DeepEqual(keys, local.Keys) || !reflect.DeepEqual(vals, local.Values) {
		t.Fatal("clustered output differs from in-process engine (not byte-identical)")
	}
}

// TestSpeculationOvertakesStraggler: one worker stalls every Map
// dispatch forever. The straggler monitor must launch a backup attempt
// on the other worker, the backup must win, the stalled primary must be
// cancelled, and every keyblock must still commit exactly once with
// byte-identical output.
func TestSpeculationOvertakesStraggler(t *testing.T) {
	reg := metrics.New()
	cfg := CoordinatorConfig{
		Metrics:             reg,
		Speculation:         true,
		SpeculationFactor:   2,
		SpeculationMin:      10 * time.Millisecond,
		SpeculationInterval: 2 * time.Millisecond,
	}
	stall := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/map" {
				// Stall until the coordinator gives up on this attempt. The
				// body must be drained first or the server never notices the
				// client abort (no background read while the body is unread).
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(rw, r)
		})
	}
	c, _ := startChaosCluster(t, 2, cfg, nil, stall)

	var (
		mu      sync.Mutex
		commits = map[int]int{}
	)
	res, err := runClusterJob(t, c, func(spec *JobSpec) {
		spec.OnPartial = func(rr ReduceResult) {
			mu.Lock()
			commits[rr.Keyblock]++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Speculated == 0 {
		t.Fatal("no backup attempt was launched for the stalled primary")
	}
	if res.Counters.SpeculativeWins == 0 {
		t.Fatal("no backup attempt overtook its stalled primary")
	}
	if got := reg.Counter("sidrd_cluster_speculative_launched_total").Value(); got == 0 {
		t.Fatal("sidrd_cluster_speculative_launched_total stayed zero")
	}
	if got := reg.Counter("sidrd_cluster_speculative_wins_total").Value(); got == 0 {
		t.Fatal("sidrd_cluster_speculative_wins_total stayed zero")
	}
	// Every win cancels the attempt it overtook.
	if got, wins := reg.Counter("sidrd_cluster_speculative_cancelled_total").Value(), reg.Counter("sidrd_cluster_speculative_wins_total").Value(); got < wins {
		t.Fatalf("sidrd_cluster_speculative_cancelled_total = %d, below the %d wins", got, wins)
	}
	mu.Lock()
	for kb, n := range commits {
		if n != 1 {
			t.Fatalf("keyblock %d committed %d times, want exactly once", kb, n)
		}
	}
	mu.Unlock()
	assertMatchesInProcess(t, res)
}

// corruptAttemptZero flips one payload bit of every served attempt-0
// spill that has blocks. Re-executed attempts (attempt >= 1) are served
// verbatim. The last byte is always inside the final block's CRC-covered
// payload; spills at exactly the 28-byte header (zero blocks) are left
// alone — a header flip would be a structural error, not a checksum
// failure.
func corruptAttemptZero(h http.Handler) http.Handler {
	return rewriteSpills(h, func(_, attempt int, spill []byte) {
		if attempt == 0 && len(spill) > 28 {
			spill[len(spill)-1] ^= 0x01
		}
	})
}

// TestCorruptSpillTriggersReexecution: a spill whose payload fails the
// CRC32C must be treated as a lost attempt — the source split
// re-executes and the job commits byte-identical output. The worker
// stays alive throughout (single-worker cluster: marking it dead would
// fail the job), pinning that checksum failures are not conn failures.
func TestCorruptSpillTriggersReexecution(t *testing.T) {
	reg := metrics.New()
	c, _ := startChaosCluster(t, 1, CoordinatorConfig{Metrics: reg}, nil,
		func(i int, h http.Handler) http.Handler { return corruptAttemptZero(h) })

	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CorruptSpills == 0 {
		t.Fatal("no fetch was rejected by the payload checksum")
	}
	if res.Counters.Reexecuted == 0 {
		t.Fatal("corrupt spill did not re-execute its source split")
	}
	if got := reg.Counter("sidrd_cluster_spills_corrupt_total").Value(); got == 0 {
		t.Fatal("sidrd_cluster_spills_corrupt_total stayed zero")
	}
	assertMatchesInProcess(t, res)
}

// TestQuarantineHysteresis drives the worker health scoring directly:
// repeated failures quarantine a worker, pickWorker then avoids it
// while a healthy worker exists, health probes decay the score, and the
// worker reinstates only below the (lower) reinstate threshold.
func TestQuarantineHysteresis(t *testing.T) {
	reg := metrics.New()
	healthy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	}))
	defer healthy.Close()

	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute, Metrics: reg})
	defer c.Close()
	if err := c.registerNode("flaky", healthy.URL, ""); err != nil {
		t.Fatal(err)
	}
	if err := c.registerNode("good", healthy.URL, ""); err != nil {
		t.Fatal(err)
	}

	// Two straight failures push the EWMA (α=0.3) to 0.51 > 0.5.
	c.noteOutcome("flaky", true)
	c.noteOutcome("flaky", true)
	ws := c.workerTable()
	var flaky workerInfo
	for _, w := range ws {
		if w.Name == "flaky" {
			flaky = w
		}
	}
	if !flaky.Quarantined || flaky.FailScore <= 0.5 {
		t.Fatalf("flaky not quarantined after repeated failures: %+v", flaky)
	}
	if got := reg.Counter("sidrd_cluster_quarantines_total").Value(); got != 1 {
		t.Fatalf("quarantines_total = %d, want 1", got)
	}
	if got := reg.Gauge("sidrd_cluster_workers_quarantined").Value(); got != 1 {
		t.Fatalf("workers_quarantined gauge = %d, want 1", got)
	}

	// While a healthy worker exists, dispatches never land on the
	// quarantined one — even when the healthy worker is busier.
	for i := 0; i < 3; i++ {
		name, _, _, err := c.pickWorker(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if name != "good" {
			t.Fatalf("pick %d chose quarantined worker %q", i, name)
		}
	}
	// With every healthy worker excluded, the quarantined one is still
	// preferred over nothing.
	name, _, _, err := c.pickWorker(nil, map[string]bool{"good": true})
	if err != nil || name != "flaky" {
		t.Fatalf("fallback pick = %q, %v; want quarantined worker", name, err)
	}

	// One successful probe decays 0.51 to 0.357 — above the reinstate
	// threshold, so hysteresis keeps it quarantined.
	c.probeQuarantined(context.Background())
	if ws := c.workerTable(); func() bool {
		for _, w := range ws {
			if w.Name == "flaky" {
				return !w.Quarantined
			}
		}
		return true
	}() {
		t.Fatal("worker reinstated above the reinstate threshold (no hysteresis)")
	}
	// More healthy probes decay it below 0.25: reinstated.
	for i := 0; i < 4; i++ {
		c.probeQuarantined(context.Background())
	}
	for _, w := range c.workerTable() {
		if w.Name == "flaky" && w.Quarantined {
			t.Fatalf("worker still quarantined after recovery: %+v", w)
		}
	}
	if got := reg.Counter("sidrd_cluster_reinstates_total").Value(); got != 1 {
		t.Fatalf("reinstates_total = %d, want 1", got)
	}
	if got := reg.Gauge("sidrd_cluster_workers_quarantined").Value(); got != 0 {
		t.Fatalf("workers_quarantined gauge = %d, want 0", got)
	}
}

// TestScoreSurvivesReregistration: health is identity-keyed, so an
// evicted worker that re-registers keeps its fail score instead of
// laundering it through a reconnect.
func TestScoreSurvivesReregistration(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	defer c.Close()
	if err := c.registerNode("w0", "http://127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	c.noteOutcome("w0", true)
	c.noteOutcome("w0", true)
	c.markDead("w0")
	if err := c.registerNode("w0", "http://127.0.0.1:2", ""); err != nil {
		t.Fatal(err)
	}
	w := c.workerTable()[0]
	if !w.Alive || !w.Quarantined || w.FailScore <= 0.5 {
		t.Fatalf("re-registration laundered the fail score: %+v", w)
	}
}

// TestCloseUnblocksReleaseBroadcast: a release broadcast stuck on an
// unresponsive worker must be cut short by Close instead of pinning its
// goroutines for the full timeout — Close joins them all.
func TestCloseUnblocksReleaseBroadcast(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hang.Close()

	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Minute})
	if err := c.registerNode("w0", hang.URL, ""); err != nil {
		t.Fatal(err)
	}
	c.releaseAttempt(hang.URL, "job-x", 0, 0)
	done := make(chan struct{})
	go func() {
		c.releaseJob("job-x")
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	c.Close() // cancels baseCtx and joins every release goroutine
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("releaseJob still blocked after Close")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %s; the release deadline leaked past cancellation", elapsed)
	}
}

// TestChaosSoak runs the acceptance query under seeded fault schedules
// — dispatch errors, shuffle delays, slow streams, payload bit-flips, a
// worker SIGKILL mid-job, and injected hangs rescued by speculation —
// and requires byte-identical output every time. Each schedule is a
// fixed seed, so a failure reproduces exactly.
func TestChaosSoak(t *testing.T) {
	cases := []struct {
		name         string
		spec         string // coordinator-side transport chaos
		kill         bool   // SIGKILL worker 0 after its 2nd map
		hang         bool   // worker 0 hangs ~20% of maps; speculation rescues
		wantFallback bool   // ≥1 multi-spill fetch must fail and be re-fetched singly
		runs         int    // jobs run back to back under the schedule (0 = 1)
	}{
		{name: "dispatch-errors", spec: "seed=101,delay=0.2:2ms,error=0.15"},
		{name: "shuffle-flip", spec: "seed=202,match=/v1/shuffle/,flip=0.1"},
		{name: "slow-shuffle", spec: "seed=303,match=/v1/shuffle/,slow=0.3:1ms,delay=0.1:1ms"},
		// Nearly a third of shuffle responses — first fetches and the
		// single-spill retries alike — get one bit flipped mid-stream;
		// frame/meta/CRC validation must reject each and the retry policy
		// must still complete the job byte-identically.
		// runs: 6 stays: only a real transport shows a damaged multi-spill
		// response refused whole and re-fetched singly, and a job makes just
		// ~6 such requests — 0.7³⁶ that none of 36 is hit.
		{name: "batch-flip", spec: "seed=505,match=/v1/shuffle/batch,flip=0.3", wantFallback: true, runs: 6},
		// Shuffle streams trickle out a byte at a time; slow is not an
		// error, so batches must still land.
		{name: "slow-batch", spec: "seed=606,match=/v1/shuffle/batch,slow=0.5:1ms,delay=0.2:1ms"},
		{name: "kill-worker", kill: true},
		{name: "hang-speculation", hang: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := CoordinatorConfig{}
			if tc.spec != "" {
				spec, err := faultinject.Parse(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Client = &http.Client{
					Transport: faultinject.New(spec).Transport(http.DefaultTransport),
				}
			}
			var workers []*testWorker
			var maps, hangs atomic.Int64
			mutate := func(i int, wc *WorkerConfig) {
				if i != 0 || !tc.hang {
					return
				}
				spec, err := faultinject.Parse("seed=404,hang=0.2")
				if err != nil {
					t.Fatal(err)
				}
				wc.Chaos = faultinject.New(spec)
			}
			// Worker 0's Map dispatches pass through here. Under "kill" the
			// 2nd one takes the worker's server and spill directory down, as
			// a SIGKILL would, before any spill is written (async because a
			// handler cannot join its own server shutdown). Under "hang" each
			// hung attempt is counted from the error the worker answers with.
			wrap := func(i int, h http.Handler) http.Handler {
				if i != 0 || !(tc.kill || tc.hang) {
					return nil
				}
				return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/map" {
						h.ServeHTTP(rw, r)
						return
					}
					if tc.kill && maps.Add(1) == 2 {
						go workers[0].kill()
						http.Error(rw, "worker killed", http.StatusServiceUnavailable)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if strings.Contains(rec.Body.String(), "injected hang") {
						hangs.Add(1)
					}
					for k, v := range rec.Header() {
						rw.Header()[k] = v
					}
					rw.WriteHeader(rec.Code)
					rw.Write(rec.Body.Bytes())
				})
			}
			if tc.hang {
				cfg.Speculation = true
				cfg.SpeculationFactor = 2
				cfg.SpeculationMin = 10 * time.Millisecond
				cfg.SpeculationInterval = 2 * time.Millisecond
			}
			var c *Coordinator
			c, workers = startChaosCluster(t, 3, cfg, mutate, wrap)
			var total Counters
			for run := 0; run < max(tc.runs, 1); run++ {
				res, err := runClusterJob(t, c, func(spec *JobSpec) {
					if tc.kill {
						// Workers = 1 stays: only a real death shows the fetch policy
						// classing a committed spill lost with its worker, so w0's
						// first Map must commit before its second dispatch, one task
						// at a time, kills it.
						spec.Workers = 1
					}
				})
				if err != nil {
					t.Fatalf("job failed under %q chaos: %v", tc.name, err)
				}
				assertMatchesInProcess(t, res)
				total.Reexecuted += res.Counters.Reexecuted
				total.Speculated += res.Counters.Speculated
				total.BatchFallbacks += res.Counters.BatchFallbacks
			}
			// The killed worker's committed spill is re-executed.
			if tc.kill && total.Reexecuted == 0 {
				t.Fatal("worker kill caused no re-execution")
			}
			if tc.hang && hangs.Load() > 0 && total.Speculated == 0 {
				t.Fatal("injected hangs were never speculated around")
			}
			if tc.wantFallback && total.BatchFallbacks == 0 {
				t.Fatal("no corrupted batch was re-fetched singly")
			}
		})
	}
}
