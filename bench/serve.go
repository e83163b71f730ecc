package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"sidr"
	"sidr/internal/datagen"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/server"
	"sidr/internal/wire"
)

// serveEnv is the daemon stack — registry, jobs.Manager and server.New
// with sidrd's default settings — behind httptest, driven by closed-loop
// HTTP clients. Each request is POST /v1/query, then GET
// /v1/jobs/{id}/stream read to the terminal event.
//
// The request schedule is a pure function of the seed: every tenth
// request (at a seeded offset) is a query never asked before, the other
// nine draw zipf-distributed from a hot set of 32 queries that the
// warm-up has already run, so in the timed window 90 % of requests are
// result-cache hits and 10 % are cold executions, by construction.
type serveEnv struct {
	rec      *recorder
	dir      string
	path     string
	mgr      *jobs.Manager
	registry *server.Registry
	reg      *metrics.Registry
	plain    *httptest.Server
	traced   *httptest.Server // same daemon behind a tracingHandler; nil untraced
	handler  *tracingHandler
	client   *http.Client
	info     map[string]any

	queries  []string // seeded order: [0,hot) is the hot set, the rest feed cold requests
	hot      int
	hotWant  []uint64
	zipf     []int // hot-set index per hot request, pre-drawn
	coldSlot int
	points   int64

	mu       sync.Mutex
	coldSeen map[int]uint64 // cold query index → hash of what the daemon returned
	before   map[string]int64
}

func (e *serveEnv) clients() int           { return min(2, runtime.NumCPU()) }
func (e *serveEnv) probeQueries() int      { return 40 }
func (e *serveEnv) params() map[string]any { return e.info }

func (e *serveEnv) close() {
	e.plain.Close()
	if e.traced != nil {
		e.traced.Close()
	}
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.mgr.Shutdown(ctx)
	e.registry.Close()
}

// referenceFor computes one mix query's reference with the plan
// parameters the daemon defaults to (4 reducers, input/8+1 split points).
func (e *serveEnv) referenceFor(ds *sidr.Dataset, qs string) (uint64, error) {
	q, err := sidr.ParseQuery(qs)
	if err != nil {
		return 0, err
	}
	return reference(ds, nil, q, 4, 0)
}

func (e *serveEnv) prepare() error {
	ds, err := sidr.Open(e.path, "v")
	if err != nil {
		return err
	}
	defer ds.Close()
	e.hotWant = make([]uint64, e.hot)
	for i := range e.hotWant {
		if e.hotWant[i], err = e.referenceFor(ds, e.queries[i]); err != nil {
			return err
		}
	}
	return nil
}

// warm runs every hot query once, so the timed window starts with the
// hot set cached, and records the hot set's wire size.
func (e *serveEnv) warm() error {
	var wireBytes int
	for i := 0; i < e.hot; i++ {
		r := e.request(e.plain.URL, context.Background(), e.queries[i])
		if r.err != nil {
			return r.err
		}
		if !verify(r.keys, r.values, e.hotWant[i]) {
			return fmt.Errorf("hot query %q differs from the reference", e.queries[i])
		}
		wireBytes += r.doneBytes
	}
	e.info["hot_set_wire_bytes"] = wireBytes
	e.before = e.counterValues()
	return nil
}

var serveCounters = []string{
	"sidrd_resultcache_hits_total", "sidrd_resultcache_misses_total",
	"sidrd_plan_cache_hits_total", "sidrd_plan_cache_misses_total",
	"sidrd_collapse_followers_total", "sidrd_jobs_done_total",
}

func (e *serveEnv) counterValues() map[string]int64 {
	m := make(map[string]int64)
	for _, name := range serveCounters {
		m[name] = e.reg.Counter(name).Value()
	}
	return m
}

// response is one request as the client decoded it.
type response struct {
	err       error
	hit       bool // served from the result cache
	collapsed bool
	first     time.Duration // submit → first partial event carrying a value
	gotFirst  bool
	keys      [][]int64
	values    [][]float64
	doneBytes int // size of the terminal event line
}

// request performs one submit + stream round trip.
func (e *serveEnv) request(base string, ctx context.Context, qs string) (r response) {
	start := time.Now()
	body, _ := json.Marshal(jobs.Request{Dataset: "grid", Query: qs})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var snap jobs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		r.err = fmt.Errorf("submit %q: status %d: %v", qs, resp.StatusCode, err)
		return r
	}
	r.hit, r.collapsed = snap.ResultHit, snap.CollapsedInto != ""

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+snap.ID+"/stream", nil)
	if err != nil {
		r.err = err
		return r
	}
	resp, err = e.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	for sc.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.err = fmt.Errorf("stream of %q: %w", qs, err)
			return r
		}
		switch ev.Type {
		case wire.EventPartial:
			if !r.gotFirst && ev.Partial != nil && hasValue(ev.Partial.Values) {
				r.first, r.gotFirst = time.Since(start), true
			}
		case wire.EventDone:
			if ev.Result == nil {
				r.err = fmt.Errorf("stream of %q: done event without a result", qs)
				return r
			}
			r.keys, r.values, r.doneBytes = ev.Result.Keys, ev.Result.Values, len(sc.Bytes())
			return r
		default:
			r.err = fmt.Errorf("stream of %q ended %s: %s", qs, ev.Type, ev.Error)
			return r
		}
	}
	r.err = fmt.Errorf("stream of %q ended without a terminal event: %v", qs, sc.Err())
	return r
}

func (e *serveEnv) query(i int, traced bool) sample {
	s := sample{points: e.points, traced: traced}
	cold := i%10 == e.coldSlot
	var qi int
	if cold {
		qi = e.hot + i/10
		if qi >= len(e.queries) {
			s.err = fmt.Errorf("the pool of %d distinct queries ran dry", len(e.queries))
			return s
		}
	} else {
		qi = e.zipf[(i-i/10)%len(e.zipf)]
	}
	s.class = qi % 3
	base, ctx := e.plain.URL, context.Background()
	var root int64
	if traced {
		base, root = e.traced.URL, e.rec.reserve()
		ctx = withSpan(ctx, int64(i), root)
	}
	start := time.Now()
	r := e.request(base, ctx, e.queries[qi])
	end := time.Now()
	if traced {
		e.rec.put(root, 0, int64(i), "query", start, end)
		if r.gotFirst {
			e.rec.add(root, int64(i), "first_result", start, start.Add(r.first))
		}
	}
	if r.err != nil {
		s.err = r.err
		return s
	}
	s.total = end.Sub(start).Seconds()
	s.first, s.gotFirst = r.first.Seconds(), r.gotFirst
	s.repeat = r.hit
	s.executed = !r.hit && !r.collapsed
	if cold {
		// Checked after the timed window: computing a reference costs as
		// much as the query.
		e.mu.Lock()
		e.coldSeen[qi] = resultHash(r.keys, r.values)
		e.mu.Unlock()
		s.ok = true
	} else {
		s.ok = verify(r.keys, r.values, e.hotWant[qi])
	}
	return s
}

// finish checks every cold request's output against a reference computed
// now.
func (e *serveEnv) finish() (int, error) {
	ds, err := sidr.Open(e.path, "v")
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	failed := 0
	for qi, got := range e.coldSeen {
		want, err := e.referenceFor(ds, e.queries[qi])
		if err != nil {
			return 0, err
		}
		if got != want {
			failed++
		}
	}
	return failed, nil
}

func (e *serveEnv) layers(m map[string]float64, samples []sample) error {
	after := e.counterValues()
	d := func(name string) float64 { return float64(after[name] - e.before[name]) }
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	m["jobs.result_cache_hit_ratio"] = ratio(d("sidrd_resultcache_hits_total"), d("sidrd_resultcache_misses_total"))
	m["jobs.plan_cache_hit_ratio"] = ratio(d("sidrd_plan_cache_hits_total"), d("sidrd_plan_cache_misses_total"))
	m["jobs.collapsed"] = d("sidrd_collapse_followers_total")
	m["jobs.executed"] = d("sidrd_jobs_done_total")

	var hits []float64
	for _, s := range samples {
		if s.ok && s.repeat {
			hits = append(hits, s.total)
		}
	}
	if traced := tracedCount(samples); traced > 0 {
		m["server.stream_bytes"] = float64(e.handler.written()) / traced
	}

	// The same request class without HTTP: result-cache hits straight
	// through the Manager, submit → terminal state.
	var direct []float64
	var hotResult *sidr.Result
	for i := 0; i < 4*e.hot; i++ {
		start := time.Now()
		j, err := e.mgr.Submit(jobs.Request{Dataset: "grid", Query: e.queries[i%e.hot]})
		if err != nil {
			return err
		}
		if _, err := j.Wait(context.Background()); err != nil {
			return err
		}
		direct = append(direct, time.Since(start).Seconds())
		hotResult = j.Result()
	}
	m["jobs.submit_to_done_s"] = median(direct)
	if len(hits) > 0 {
		m["server.http_overhead_s"] = median(hits) - median(direct)
	}

	// Layer replay of the first cold query, as the daemon runs it.
	f, err := ncfile.Open(e.path)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := sidr.Open(e.path, "v")
	if err != nil {
		return err
	}
	defer ds.Close()
	qs := e.queries[e.hot]
	want, err := e.referenceFor(ds, qs)
	if err != nil {
		return err
	}
	iq, err := query.Parse(qs)
	if err != nil {
		return err
	}
	if err := replay(e.rec, -1, replayInput{
		query: qs, fileA: f, reducers: 4, splitPoints: iq.Input.Size()/8 + 1,
		index: e.registry.Index("grid", "v"), want: want,
	}, e.dir, m); err != nil {
		return err
	}
	// wire.* is about what the serving tier sends most: a hot result.
	start := time.Now()
	b, err := json.Marshal(wire.FromResult(hotResult))
	m["wire.encode_s"] = time.Since(start).Seconds()
	m["wire.encode_bytes"] = float64(len(b))
	return err
}

func setupServeMix(cfg runConfig, dir string, rec *recorder) (env, error) {
	shape := pick(cfg, []int64{256, 128, 64}, []int64{32, 32, 16})
	sub := pick(cfg, []int64{32, 64, 64}, []int64{8, 16, 16})
	path, err := writeFile(dir, "grid", "v", shape, datagen.EvenKeyed(cfg.seed))
	if err != nil {
		return nil, err
	}
	e := &serveEnv{rec: rec, dir: dir, path: path, hot: 32, points: size(sub),
		reg: metrics.New(), registry: server.NewRegistry(), coldSeen: make(map[int]uint64)}
	if err := e.registry.AddFile("grid", path); err != nil {
		return nil, err
	}
	// sidrd's flag defaults.
	e.mgr, err = jobs.NewManager(jobs.Config{
		QueueDepth: 64, PlanCacheSize: 128, RetainJobs: 256, ResultCacheBytes: 64 << 20,
		Datasets: e.registry, Metrics: e.reg,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(e.mgr, e.registry, e.reg, nil)
	e.plain = httptest.NewServer(srv)
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if rec != nil {
		e.handler = &tracingHandler{next: srv, rec: rec, name: "server"}
		e.traced = httptest.NewServer(e.handler)
		rt = &tracingTransport{base: rt, rec: rec}
	}
	e.client = &http.Client{Transport: rt}

	// Every distinct sub-region query the file admits: tile-aligned row
	// and column offsets in seeded order, each under three operators.
	// Query j uses operator j%3, so the hot set's ranks and the cold
	// requests cycle through the operators the same way under every seed
	// and only the regions differ.
	var regions [][2]int64
	for r := int64(0); r+sub[0] <= shape[0]; r += 4 {
		for c := int64(0); c+sub[1] <= shape[1]; c += 4 {
			regions = append(regions, [2]int64{r, c})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(regions), func(i, j int) { regions[i], regions[j] = regions[j], regions[i] })
	ops := []string{"avg v%s", "median v%s", "filter_gt v%s param 99"}
	for j := 0; j < 3*len(regions); j++ {
		at := regions[j/3]
		slab := fmt.Sprintf("[%d,%d,0 : %s] es {4,4,4}", at[0], at[1], commas(sub))
		e.queries = append(e.queries, fmt.Sprintf(ops[j%3], slab))
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(e.hot-1))
	e.zipf = make([]int, 1<<14)
	for i := range e.zipf {
		e.zipf[i] = int(z.Uint64())
	}
	e.coldSlot = rng.Intn(10)
	e.info = map[string]any{"shape": shape, "sub_region": sub, "points_per_query": e.points,
		"hot_set": e.hot, "distinct_queries": len(e.queries), "cold_every": 10, "zipf_s": 1.2}
	return e, nil
}
