package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/datagen"
	"sidr/internal/exec"
	"sidr/internal/metrics"
	"sidr/internal/ncfile"
	"sidr/internal/query"
)

// testCluster is a coordinator built the way sidrd -cluster builds it
// (5 s heartbeat timeout, one spill replica, batched shuffle, no
// speculation) plus loopback workers that register and heartbeat over
// HTTP like sidr-worker processes do — all inside the bench process.
type testCluster struct {
	coord   *cluster.Coordinator
	reg     *metrics.Registry
	exec    *exec.Executor
	front   *httptest.Server // the coordinator's worker-facing endpoints
	servers []*httptest.Server
	workers []*cluster.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startCluster brings up a coordinator and n workers under dir. With a
// recorder the coordinator's requests go through a tracingTransport and
// each worker sits behind a tracingHandler; without one everything is
// the program's defaults.
func startCluster(dir string, n int, rec *recorder) (*testCluster, error) {
	c := &testCluster{reg: metrics.New(), exec: exec.New(runtime.GOMAXPROCS(0))}
	ccfg := cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second, SpillReplicas: 1, Metrics: c.reg}
	if rec != nil {
		// One pooled transport for dispatch and shuffle (Client replaces
		// both of the coordinator's); no header timeout, as for dispatch.
		ccfg.Client = &http.Client{Transport: &tracingTransport{rec: rec,
			base: cluster.NewTransportWithStats(0, -1, c.reg.Counter("sidrd_shuffle_dials_total"))}}
	}
	c.coord = cluster.NewCoordinator(ccfg)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.goRun(func() { c.coord.Start(ctx) })
	mux := http.NewServeMux()
	c.coord.Mount(mux)
	c.front = httptest.NewServer(mux)

	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name:           fmt.Sprintf("w%d", i),
			SpillDir:       filepath.Join(dir, fmt.Sprintf("spill%d", i)),
			AdvertiseURL:   "http://" + ts.Listener.Addr().String(),
			CoordinatorURL: c.front.URL,
		})
		if err != nil {
			ts.Close()
			c.close()
			return nil, err
		}
		ts.Config.Handler = w
		if rec != nil {
			ts.Config.Handler = &tracingHandler{next: w, rec: rec, name: "worker"}
		}
		ts.Start()
		c.servers = append(c.servers, ts)
		c.workers = append(c.workers, w)
		c.goRun(func() { w.Start(ctx) })
	}
	for wait := time.Now(); c.coord.AliveWorkers() < n; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 10*time.Second {
			c.close()
			return nil, fmt.Errorf("only %d of %d workers registered", c.coord.AliveWorkers(), n)
		}
	}
	return c, nil
}

func (c *testCluster) goRun(fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn()
	}()
}

func (c *testCluster) close() {
	c.cancel()
	c.wg.Wait()
	c.coord.Close()
	for i, ts := range c.servers {
		ts.Close()
		c.workers[i].Close()
	}
	c.front.Close()
	c.exec.Close()
}

// clusterEnv runs one query through cluster.Coordinator.Run. A traced
// run keeps two clusters — one all defaults, one instrumented — and
// alternates between them, so trace.overhead_ratio includes what the
// instrumentation's own client and handlers cost.
type clusterEnv struct {
	rec      *recorder
	dir      string
	queryStr string
	plain    *testCluster
	traced   *testCluster // nil in untraced runs
	plan     cluster.JobPlan
	dataset  cluster.DatasetSpec
	points   int64
	want     uint64
	info     map[string]any

	counters cluster.Counters // summed over the traced queries
}

func (e *clusterEnv) clients() int           { return 1 }
func (e *clusterEnv) probeQueries() int      { return 1 }
func (e *clusterEnv) params() map[string]any { return e.info }
func (e *clusterEnv) finish() (int, error)   { return 0, nil }

func (e *clusterEnv) close() {
	e.plain.close()
	if e.traced != nil {
		e.traced.close()
	}
}

func (e *clusterEnv) prepare() error {
	ds, err := sidr.Open(e.dataset.Path, e.dataset.Variable)
	if err != nil {
		return err
	}
	defer ds.Close()
	q, err := sidr.ParseQuery(e.queryStr)
	if err != nil {
		return err
	}
	e.want, err = reference(ds, nil, q, e.plan.Reducers, e.plan.SplitPoints)
	return err
}

func (e *clusterEnv) warm() error {
	for i := 0; i < 2; i++ {
		if s := e.query(-1, false); !s.ok {
			return s.failure()
		}
		if e.traced != nil {
			if s := e.query(-1, true); !s.ok {
				return s.failure()
			}
		}
	}
	return nil
}

func (e *clusterEnv) query(i int, traced bool) sample {
	s := sample{points: e.points, executed: true, repeat: true, traced: traced}
	c, ctx, qid := e.plain, context.Background(), int64(i)
	var root int64
	if traced {
		c = e.traced
		if i >= 0 { // warm-ups use the instrumented cluster but leave no spans
			root = e.rec.reserve()
			ctx = withSpan(ctx, qid, root)
		}
	}
	var first firstMark
	start := time.Now()
	res, err := c.coord.Run(ctx, cluster.JobSpec{
		Plan: e.plan, Dataset: e.dataset, Exec: c.exec,
		OnPartial: func(rr cluster.ReduceResult) { first.note(rr.Values) },
	})
	if err != nil {
		s.err = err
		return s
	}
	outs := make([]keyblockOut, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = keyblockOut{o.Keys, o.Values}
	}
	keys, values, _ := assemble(nil, outs)
	end := time.Now()
	s.total = end.Sub(start).Seconds()
	first.since(start, &s)
	s.ok = verify(keys, values, e.want)
	if traced && i >= 0 {
		e.rec.put(root, 0, qid, "query", start, end)
		if s.gotFirst {
			e.rec.add(root, qid, "first_result", start, first.at)
		}
		addCounters(&e.counters, res.Counters)
	}
	return s
}

func addCounters(sum *cluster.Counters, c cluster.Counters) {
	sum.MapsDispatched += c.MapsDispatched
	sum.Retried += c.Retried
	sum.Reexecuted += c.Reexecuted
	sum.Connections += c.Connections
	sum.ShuffleRequests += c.ShuffleRequests
	sum.BatchFallbacks += c.BatchFallbacks
	sum.ShuffleBytes += c.ShuffleBytes
	sum.ReplicaPushes += c.ReplicaPushes
	sum.ReplicaBytes += c.ReplicaBytes
}

func (e *clusterEnv) layers(m map[string]float64, samples []sample) error {
	if n := tracedCount(samples); n > 0 {
		c := e.counters
		m["mapreduce.tasks_dispatched"] = float64(c.MapsDispatched)/n + float64(e.plan.Reducers)
		m["cluster.fetch_requests"] = float64(c.ShuffleRequests) / n
		m["cluster.fetch_bytes"] = float64(c.ShuffleBytes) / n
		m["cluster.connections"] = float64(c.Connections) / n
		m["cluster.replica_pushes"] = float64(c.ReplicaPushes) / n
		m["cluster.replica_bytes"] = float64(c.ReplicaBytes) / n
		m["cluster.batch_fallbacks"] = float64(c.BatchFallbacks)
		m["cluster.retried"] = float64(c.Retried)
		m["cluster.reexecuted"] = float64(c.Reexecuted)
		m["cluster.dials"] = float64(e.traced.reg.Counter("sidrd_shuffle_dials_total").Value())
		for _, sp := range e.rec.all() {
			d := float64(sp.End-sp.Start) / 1e9 / n
			switch sp.Name {
			case "client.map":
				m["cluster.map_dispatch_s"] += d
			case "worker.map":
				m["mapreduce.map_task_s"] += d
			case "client.shuffle":
				m["cluster.fetch_s"] += d
			case "worker.shuffle", "worker.pack":
				m["cluster.worker_serve_s"] += d
			}
		}
	}
	f, err := ncfile.Open(e.dataset.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	return replay(e.rec, -2, replayInput{
		query: e.queryStr, fileA: f, reducers: e.plan.Reducers, splitPoints: e.plan.SplitPoints,
		shuffle: true, want: e.want,
	}, filepath.Join(e.dir, "replay"), m)
}

func setupShuffleMedian(cfg runConfig, dir string, rec *recorder) (env, error) {
	shape := pick(cfg, []int64{64, 128, 64}, []int64{16, 16, 16})
	splits := pick(cfg, int64(32), int64(8))
	path, err := writeFile(dir, "grid", "temp", shape, datagen.Temperature(cfg.seed))
	if err != nil {
		return nil, err
	}
	queryStr := "median temp" + fullSlab(shape) + " es {4,4,4}"
	q, err := query.Parse(queryStr)
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{rec: rec, dir: dir, queryStr: queryStr, points: size(shape),
		plan:    cluster.JobPlan{Query: q.String(), Engine: "sidr", Reducers: 8, SplitPoints: size(shape) / splits},
		dataset: cluster.DatasetSpec{Kind: "file", Path: path, Variable: "temp"},
		info:    map[string]any{"query": queryStr, "shape": shape, "points": size(shape), "reducers": 8, "splits": splits, "workers": 2},
	}
	if e.plain, err = startCluster(filepath.Join(dir, "plain"), 2, nil); err != nil {
		return nil, err
	}
	if rec != nil {
		if e.traced, err = startCluster(filepath.Join(dir, "traced"), 2, rec); err != nil {
			e.plain.close()
			return nil, err
		}
	}
	return e, nil
}
