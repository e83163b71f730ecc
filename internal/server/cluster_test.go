package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
	"sidr/internal/wire"
)

// clusterRegistry builds a registry with one generated dataset, "temp",
// that cluster workers open from its file.
func clusterRegistry(t *testing.T) *Registry {
	t.Helper()
	registry := NewRegistry()
	addGenerated(t, registry, "temp", "temp", []int64{30, 24, 24}, datagen.Temperature(7))
	return registry
}

// addGenerated writes a generator's dataset to a file under t's temp
// directory and registers it under name, as sidrd serves a datagen file.
func addGenerated(t *testing.T, r *Registry, name, variable string, shape []int64, fn func(coords.Coord) float64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".ncf")
	if err := datagen.WriteDataset(path, variable, coords.NewShape(shape...), fn); err != nil {
		t.Fatal(err)
	}
	if err := r.AddFile(name, path); err != nil {
		t.Fatal(err)
	}
}

// startServerWorkers spawns n in-process cluster workers on distinct
// httptest ports and registers them with the coordinator.
func startServerWorkers(t *testing.T, coord *cluster.Coordinator, n int) []*httptest.Server {
	t.Helper()
	return startTappedWorkers(t, coord, n, nil)
}

// mapDispatch is the part of a /v1/map request body a tap reads.
type mapDispatch struct {
	JobID string          `json:"job_id"`
	Plan  cluster.JobPlan `json:"plan"`
}

// startTappedWorkers is startServerWorkers with an observer: tap, when
// set, sees every Map dispatch a worker receives, decoded from the wire,
// before the worker does.
func startTappedWorkers(t *testing.T, coord *cluster.Coordinator, n int, tap func(mapDispatch)) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{Name: fmt.Sprintf("srvw%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = w
		if tap != nil {
			h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/map" {
					body, _ := io.ReadAll(r.Body)
					var req mapDispatch
					if err := json.Unmarshal(body, &req); err == nil {
						tap(req)
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
				}
				w.ServeHTTP(rw, r)
			})
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		registerWorker(t, coord, fmt.Sprintf("srvw%d", i), srv.URL)
		servers[i] = srv
	}
	return servers
}

// registerWorker registers a worker with the coordinator through its
// HTTP endpoint, as a sidr-worker does at start.
func registerWorker(t *testing.T, c *cluster.Coordinator, name, url string) {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	body := fmt.Sprintf(`{"name":%q,"url":%q}`, name, url)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/register", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body)
	}
}

func postQuery(t *testing.T, url string, req jobs.Request) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var clusterReq = jobs.Request{
	Dataset:     "temp",
	Query:       "avg temp[0,0,0 : 30,24,24] es {1,4,4}",
	Engine:      "sidr",
	Reducers:    4,
	SplitPoints: 1500,
	Cluster:     true,
}

// TestClusterSubmitNoWorkers pins the wire contract for a cluster
// submission with an empty worker table: 503 and a JSON error envelope
// whose detail is exactly "no-workers".
func TestClusterSubmitNoWorkers(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatTimeout: time.Hour, Metrics: metrics.New()})
	f := newFixtureCfg(t, clusterRegistry(t), jobs.Config{Cluster: coord})

	resp := postQuery(t, f.ts.URL, clusterReq)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"detail":"no-workers"`) {
		t.Fatalf("response %q does not carry detail \"no-workers\"", raw)
	}
	var we wire.Error
	if err := json.Unmarshal(raw, &we); err != nil {
		t.Fatal(err)
	}
	if we.Detail != wire.DetailNoWorkers {
		t.Fatalf("detail = %q, want %q", we.Detail, wire.DetailNoWorkers)
	}
	if we.Error == "" {
		t.Fatal("error envelope lost its message")
	}
}

// TestClusterSubmitDisabled rejects cluster jobs when the daemon has no
// coordinator at all — a client error, not a retryable 503.
func TestClusterSubmitDisabled(t *testing.T) {
	f := newFixtureCfg(t, clusterRegistry(t), jobs.Config{})
	resp := postQuery(t, f.ts.URL, clusterReq)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var we wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if we.Detail != "" {
		t.Fatalf("disabled-cluster rejection carries detail %q, want none", we.Detail)
	}
}

// TestErrorDetailVocabulary pins errorDetail's mapping and the JSON
// encoding of the detail vocabulary itself.
func TestErrorDetailVocabulary(t *testing.T) {
	if d := errorDetail(fmt.Errorf("submit: %w", cluster.ErrNoWorkers)); d != wire.DetailNoWorkers {
		t.Fatalf("ErrNoWorkers detail = %q", d)
	}
	if d := errorDetail(fmt.Errorf("map task 3: %w: dial refused", cluster.ErrRetryExhausted)); d != wire.DetailShuffleRetryExhausted {
		t.Fatalf("ErrRetryExhausted detail = %q", d)
	}
	// An exhausted budget caused by checksum failures wraps BOTH
	// sentinels; the integrity detail must win.
	corrupt := fmt.Errorf("%w: map task 3 exceeded 5 attempts (2 checksum failures): %w",
		cluster.ErrRetryExhausted, cluster.ErrSpillCorrupt)
	if d := errorDetail(corrupt); d != wire.DetailSpillCorrupt {
		t.Fatalf("ErrSpillCorrupt detail = %q, want %q", d, wire.DetailSpillCorrupt)
	}
	if d := errorDetail(fmt.Errorf("some other failure")); d != "" {
		t.Fatalf("unrelated error detail = %q, want empty", d)
	}
	b, err := json.Marshal(wire.Error{Error: "boom", Detail: wire.DetailShuffleRetryExhausted})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":"boom","detail":"shuffle-retry-exhausted"}`; string(b) != want {
		t.Fatalf("wire.Error JSON = %s, want %s", b, want)
	}
}

// TestClusterEndToEndThroughDaemon is the daemon-path acceptance test:
// a cluster job submitted over HTTP runs across two worker processes
// (in-process instances on distinct ports), streams partials, and its
// terminal result is byte-identical to the in-process engine's answer
// for the same request.
func TestClusterEndToEndThroughDaemon(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	startServerWorkers(t, coord, 2)
	f := newFixtureCfg(t, clusterRegistry(t), jobs.Config{Cluster: coord})

	resp := postQuery(t, f.ts.URL, clusterReq)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !snap.Cluster {
		t.Fatal("snapshot does not mark the job as clustered")
	}

	stream, err := http.Get(f.ts.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	scanner := bufio.NewScanner(stream.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	partials := 0
	var done *wire.StreamEvent
	for scanner.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		switch ev.Type {
		case wire.EventPartial:
			partials++
		case wire.EventDone:
			done = &ev
		default:
			t.Fatalf("unexpected stream event %+v", ev)
		}
		if done != nil {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil || done.Result == nil {
		t.Fatal("stream ended without a done event carrying the result")
	}
	if partials == 0 {
		t.Fatal("no partial events streamed before the terminal event")
	}

	// The in-process engine over the exact same generated dataset.
	gen := datagen.Temperature(7)
	ds, err := sidr.Synthetic([]int64{30, 24, 24}, func(k []int64) float64 { return gen(k) })
	if err != nil {
		t.Fatal(err)
	}
	q, err := sidr.ParseQuery(clusterReq.Query)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sidr.Run(ds, q, sidr.RunOptions{
		Engine:      sidr.SIDR,
		Reducers:    clusterReq.Reducers,
		SplitPoints: clusterReq.SplitPoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Result.Keys) != len(direct.Keys) {
		t.Fatalf("cluster result has %d rows, in-process %d", len(done.Result.Keys), len(direct.Keys))
	}
	for i := range direct.Keys {
		if fmt.Sprint(done.Result.Keys[i]) != fmt.Sprint(direct.Keys[i]) ||
			fmt.Sprint(done.Result.Values[i]) != fmt.Sprint(direct.Values[i]) {
			t.Fatalf("row %d: cluster %v=%v, in-process %v=%v", i,
				done.Result.Keys[i], done.Result.Values[i], direct.Keys[i], direct.Values[i])
		}
	}
	if done.Result.Connections <= 0 {
		t.Fatal("cluster result reports no shuffle connections")
	}
}

// TestClusterJoinEndToEndThroughDaemon runs a two-dataset structural
// join through the whole daemon stack — HTTP submission with dataset2,
// coordinator dispatch to two worker processes, dual-sided shuffle,
// skew-adaptive re-tiling sampled from a zipf-skewed side B — and
// demands the terminal result be byte-identical (Float64bits) to the
// in-process join over the same generated data. It also pins the
// serving-tier behaviours: the snapshot carries dataset2 and a skew
// summary, and an identical resubmission hits the result cache.
func TestClusterJoinEndToEndThroughDaemon(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         20 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	startServerWorkers(t, coord, 2)
	registry := NewRegistry()
	addGenerated(t, registry, "left", "a", []int64{48, 32}, datagen.Integers(11))
	addGenerated(t, registry, "right", "b", []int64{48, 32}, datagen.Zipf(23, 1.3))
	f := newFixtureCfg(t, registry, jobs.Config{Cluster: coord})

	joinReq := jobs.Request{
		Dataset:  "left",
		Dataset2: "right",
		Query:    "join javg a[0,0 : 48,32] es {8,8} with b[0,0 : 48,32] es {8,8}",
		Engine:   "sidr",
		Reducers: 4,
		MaxSkew:  16,
		Cluster:  true,
	}
	resp := postQuery(t, f.ts.URL, joinReq)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Dataset2 != "right" {
		t.Fatalf("snapshot dataset2 = %q, want \"right\"", snap.Dataset2)
	}

	stream, err := http.Get(f.ts.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	scanner := bufio.NewScanner(stream.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var done *wire.StreamEvent
	for scanner.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == wire.EventDone {
			done = &ev
			break
		}
		if ev.Type != wire.EventPartial {
			t.Fatalf("unexpected stream event %+v", ev)
		}
	}
	if done == nil || done.Result == nil {
		t.Fatal("stream ended without a done event carrying the result")
	}

	// The in-process engine over the exact same generated datasets.
	genA, genB := datagen.Integers(11), datagen.Zipf(23, 1.3)
	dsA, err := sidr.Synthetic([]int64{48, 32}, func(k []int64) float64 { return genA(k) })
	if err != nil {
		t.Fatal(err)
	}
	dsB, err := sidr.Synthetic([]int64{48, 32}, func(k []int64) float64 { return genB(k) })
	if err != nil {
		t.Fatal(err)
	}
	q, err := sidr.ParseQuery(joinReq.Query)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sidr.RunJoin(dsA, dsB, q, sidr.RunOptions{
		Engine: sidr.SIDR, Reducers: joinReq.Reducers, MaxSkew: joinReq.MaxSkew,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Result.Keys) != len(direct.Keys) || len(direct.Keys) == 0 {
		t.Fatalf("cluster join has %d rows, in-process %d", len(done.Result.Keys), len(direct.Keys))
	}
	for i := range direct.Keys {
		if fmt.Sprint(done.Result.Keys[i]) != fmt.Sprint(direct.Keys[i]) {
			t.Fatalf("row %d key: cluster %v, in-process %v", i, done.Result.Keys[i], direct.Keys[i])
		}
		for v := range direct.Values[i] {
			got, want := math.Float64bits(done.Result.Values[i][v]), math.Float64bits(direct.Values[i][v])
			if got != want {
				t.Fatalf("row %d value %d: cluster %v (bits %x), in-process %v (bits %x)",
					i, v, done.Result.Values[i][v], got, direct.Values[i][v], want)
			}
		}
	}

	// The finished job's snapshot carries the sampled skew summary.
	jresp, err := http.Get(f.ts.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		jobs.Snapshot
	}
	if err := json.NewDecoder(jresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if view.Skew == nil || view.Skew.Keyblocks <= 0 {
		t.Fatalf("finished clustered join has no skew summary: %+v", view.Skew)
	}

	// An identical resubmission is served from the result cache — the key
	// pins both dataset versions.
	resp2 := postQuery(t, f.ts.URL, joinReq)
	var snap2 jobs.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !snap2.ResultHit && time.Now().Before(deadline) {
		jr, err := http.Get(f.ts.URL + "/v1/jobs/" + snap2.ID)
		if err != nil {
			t.Fatal(err)
		}
		snap2 = jobs.Snapshot{}
		if err := json.NewDecoder(jr.Body).Decode(&snap2); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if snap2.State == "done" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !snap2.ResultHit {
		t.Fatal("identical clustered join resubmission missed the result cache")
	}
}

// TestClusterFailedStreamCarriesDetail: a worker that dies between
// registration and dispatch makes the job fail mid-run with no live
// workers left; the failed terminal stream event must carry the
// "no-workers" detail.
func TestClusterFailedStreamCarriesDetail(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Hour,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
		Metrics:          metrics.New(),
	})
	servers := startServerWorkers(t, coord, 1)
	f := newFixtureCfg(t, clusterRegistry(t), jobs.Config{Cluster: coord})
	servers[0].Close() // dies after registering: dispatch will find nobody

	resp := postQuery(t, f.ts.URL, clusterReq)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(f.ts.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	scanner := bufio.NewScanner(stream.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var final *wire.StreamEvent
	for scanner.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != wire.EventPartial {
			final = &ev
			break
		}
	}
	if final == nil {
		t.Fatal("stream ended without a terminal event")
	}
	if final.Type != wire.EventFailed {
		t.Fatalf("terminal event type = %q, want failed", final.Type)
	}
	if final.Detail != wire.DetailNoWorkers {
		t.Fatalf("failed event detail = %q (error %q), want %q", final.Detail, final.Error, wire.DetailNoWorkers)
	}
}
