package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
	"sidr/internal/wire"
)

// fixture wires a full daemon stack against an httptest server.
type fixture struct {
	t        testing.TB
	ts       *httptest.Server
	mgr      *jobs.Manager
	registry *Registry
	metrics  *metrics.Registry
}

func newFixture(t testing.TB, registry *Registry) *fixture {
	t.Helper()
	return newFixtureCfg(t, registry, jobs.Config{})
}

// newFixtureCfg is newFixture with manager knobs (queue depth, worker
// counts) under test control; cfg.Datasets and cfg.Metrics are set here.
func newFixtureCfg(t testing.TB, registry *Registry, cfg jobs.Config) *fixture {
	t.Helper()
	reg := metrics.New()
	cfg.Datasets = registry
	cfg.Metrics = reg
	mgr, err := jobs.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, registry, reg, cfg.Cluster))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
		registry.Close()
	})
	return &fixture{t: t, ts: ts, mgr: mgr, registry: registry, metrics: reg}
}

func (f *fixture) submit(req jobs.Request) jobs.Snapshot {
	f.t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(f.ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		f.t.Fatal(err)
	}
	return snap
}

func (f *fixture) jobState(id string) string {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		f.t.Fatal(err)
	}
	return snap.State
}

func (f *fixture) waitState(id, want string) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.jobState(id); st == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.t.Fatalf("job %s never reached state %q (now %q)", id, want, f.jobState(id))
}

func (f *fixture) metricsText() string {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestStreamingEndToEnd is the acceptance path: a SIDR query whose last
// keyblock's inputs are gated, so early keyblocks stream while the job
// is demonstrably still running; the assembled stream must equal a
// direct sidr.Run, and a second identical submission must hit the plan
// cache.
func TestStreamingEndToEnd(t *testing.T) {
	gate := make(chan struct{})
	gateClosed := false
	defer func() {
		if !gateClosed {
			close(gate)
		}
	}()
	registry := NewRegistry()
	if err := registry.AddSynthetic("blocky", []int64{64}, func(k []int64) float64 {
		if k[0] >= 48 {
			<-gate // hold back the last keyblock's inputs
		}
		return float64(k[0]%7) + 0.5
	}); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, registry)

	req := jobs.Request{
		Dataset:     "blocky",
		Query:       "avg v[0 : 64] es {4}",
		Engine:      "sidr",
		Reducers:    4,
		Workers:     1,
		SplitPoints: 8,
	}
	snap := f.submit(req)

	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var partials []wire.Partial
	var done *wire.StreamEvent
	for scanner.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		switch ev.Type {
		case wire.EventPartial:
			partials = append(partials, *ev.Partial)
			if len(partials) == 2 {
				// Two early results have arrived over the wire; the job
				// must still be running — its last keyblock is gated.
				if st := f.jobState(snap.ID); st != "running" {
					t.Fatalf("after 2 partial events job state = %q, want running", st)
				}
				gateClosed = true
				close(gate)
			}
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
	if len(partials) < 2 {
		t.Fatalf("got %d partial events before done, want >= 2", len(partials))
	}
	if done == nil || done.Result == nil {
		t.Fatal("stream ended without a done event carrying the result")
	}

	// The assembled stream must equal a direct in-process run.
	ds, err := sidr.Synthetic([]int64{64}, func(k []int64) float64 { return float64(k[0]%7) + 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	q, err := sidr.ParseQuery(req.Query)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: 4, SplitPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Result.Keys) != len(direct.Keys) {
		t.Fatalf("streamed result has %d rows, direct run %d", len(done.Result.Keys), len(direct.Keys))
	}
	for i := range direct.Keys {
		if fmt.Sprint(done.Result.Keys[i]) != fmt.Sprint(direct.Keys[i]) ||
			fmt.Sprint(done.Result.Values[i]) != fmt.Sprint(direct.Values[i]) {
			t.Fatalf("row %d: stream %v=%v, direct %v=%v", i,
				done.Result.Keys[i], done.Result.Values[i], direct.Keys[i], direct.Values[i])
		}
	}
	// Every key of the final result must have arrived in some partial.
	streamed := make(map[string][]float64)
	for _, p := range partials {
		for i := range p.Keys {
			streamed[fmt.Sprint(p.Keys[i])] = p.Values[i]
		}
	}
	for i, k := range direct.Keys {
		vals, ok := streamed[fmt.Sprint(k)]
		if !ok || fmt.Sprint(vals) != fmt.Sprint(direct.Values[i]) {
			t.Fatalf("key %v missing or wrong in partial stream", k)
		}
	}

	// Second identical submission: served from the result cache without
	// re-executing.
	snap2 := f.submit(req)
	f.waitState(snap2.ID, "done")
	text := f.metricsText()
	if !strings.Contains(text, "sidrd_resultcache_hits_total 1") {
		t.Fatalf("metrics do not record a result-cache hit:\n%s", text)
	}
	// One execution was timed; the hit was not. The dataset's handle
	// stays open between jobs.
	for _, line := range []string{"sidrd_query_seconds_count 1", "sidrd_first_result_seconds_count 1", "sidrd_datasets_open 1"} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("metrics lack %q:\n%s", line, text)
		}
	}

	// The same query against a different dataset of the same shape misses
	// the result cache (version differs) but reuses the prepared plan —
	// plans are a function of shape, not contents.
	if err := registry.AddSynthetic("blocky2", []int64{64}, func(k []int64) float64 { return float64(k[0]) }); err != nil {
		t.Fatal(err)
	}
	req3 := req
	req3.Dataset = "blocky2"
	snap3 := f.submit(req3)
	f.waitState(snap3.ID, "done")
	if !strings.Contains(f.metricsText(), "sidrd_plan_cache_hits_total 1") {
		t.Fatalf("metrics do not record a plan-cache hit:\n%s", f.metricsText())
	}
}

// TestCancellation verifies DELETE stops a running job promptly, the job
// surfaces ctx.Err(), and no goroutines leak.
func TestCancellation(t *testing.T) {
	registry := NewRegistry()
	if err := registry.AddSynthetic("slow", []int64{1 << 20}, func(k []int64) float64 {
		time.Sleep(50 * time.Microsecond)
		return float64(k[0])
	}); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, registry)

	before := runtime.NumGoroutine()
	snap := f.submit(jobs.Request{
		Dataset: "slow",
		Query:   fmt.Sprintf("avg v[0 : %d] es {16}", 1<<20),
		Workers: 2,
	})
	f.waitState(snap.ID, "running")

	httpReq, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	f.waitState(snap.ID, "cancelled")
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
	j, err := f.mgr.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Err() == nil || !strings.Contains(j.Err().Error(), context.Canceled.Error()) {
		t.Fatalf("job error = %v, want context.Canceled", j.Err())
	}

	// The engine's goroutines must unwind after cancellation. Idle
	// keep-alive client connections are torn down first so only engine
	// goroutines are counted.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before cancel run, %d after", before, n)
	}
	if !strings.Contains(f.metricsText(), "sidrd_jobs_cancelled_total 1") {
		t.Fatalf("metrics missing cancelled count:\n%s", f.metricsText())
	}
}

// readStream consumes a job's NDJSON stream and returns the events.
func (f *fixture) readStream(id string) []wire.StreamEvent {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []wire.StreamEvent
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev wire.StreamEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			f.t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		f.t.Fatal(err)
	}
	return events
}

// TestStreamFailedJob pins the wire contract that a failing job's stream
// still closes with exactly one terminal event, of type "failed".
func TestStreamFailedJob(t *testing.T) {
	f := newFixture(t, NewRegistry())
	snap := f.submit(jobs.Request{Dataset: "nope", Query: "avg v[0 : 16] es {4}"})
	f.waitState(snap.ID, "failed")

	events := f.readStream(snap.ID)
	if len(events) != 1 {
		t.Fatalf("failed-job stream = %+v, want exactly one terminal event", events)
	}
	ev := events[0]
	if ev.Type != wire.EventFailed || ev.JobID != snap.ID {
		t.Fatalf("terminal event = %+v, want type %q for job %s", ev, wire.EventFailed, snap.ID)
	}
	if ev.Error == "" {
		t.Fatal("failed event carries no error")
	}
}

// TestStreamCancelledJob verifies a cancelled job's live stream ends with
// a "cancelled" terminal event surfacing ctx.Err().
func TestStreamCancelledJob(t *testing.T) {
	registry := NewRegistry()
	if err := registry.AddSynthetic("slow", []int64{1 << 20}, func(k []int64) float64 {
		time.Sleep(50 * time.Microsecond)
		return float64(k[0])
	}); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, registry)
	snap := f.submit(jobs.Request{
		Dataset: "slow",
		Query:   fmt.Sprintf("avg v[0 : %d] es {16}", 1<<20),
		Workers: 2,
	})
	f.waitState(snap.ID, "running")

	streamed := make(chan []wire.StreamEvent, 1)
	go func() { streamed <- f.readStream(snap.ID) }()

	httpReq, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var events []wire.StreamEvent
	select {
	case events = <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after cancellation")
	}
	if len(events) == 0 {
		t.Fatal("cancelled-job stream closed with no events")
	}
	last := events[len(events)-1]
	if last.Type != wire.EventCancelled {
		t.Fatalf("terminal event = %+v, want type %q", last, wire.EventCancelled)
	}
	if !strings.Contains(last.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled event error = %q, want it to surface %v", last.Error, context.Canceled)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != wire.EventPartial {
			t.Fatalf("non-partial event %+v before the terminal one", ev)
		}
	}
}

func TestFileDatasetAndListing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "temp.ncf")
	if err := datagen.WriteDataset(path, "temp", coords.NewShape(28, 10), datagen.Temperature(1)); err != nil {
		t.Fatal(err)
	}
	registry := NewRegistry()
	n, err := registry.ScanDir(dir)
	if err != nil || n != 1 {
		t.Fatalf("ScanDir = %d, %v; want 1", n, err)
	}
	f := newFixture(t, registry)

	resp, err := http.Get(f.ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "temp" || infos[0].Kind != "file" {
		t.Fatalf("datasets = %+v", infos)
	}
	if len(infos[0].Variables) != 1 || infos[0].Variables[0].Name != "temp" {
		t.Fatalf("variables = %+v", infos[0].Variables)
	}

	// Two concurrent jobs over the file share one refcounted handle.
	snapA := f.submit(jobs.Request{Dataset: "temp", Query: "avg temp[0,0 : 28,10] es {7,5}"})
	snapB := f.submit(jobs.Request{Dataset: "temp", Query: "max temp[0,0 : 28,10] es {7,5}"})
	f.waitState(snapA.ID, "done")
	f.waitState(snapB.ID, "done")
	if got := registry.OpenHandles(); got != 1 {
		t.Fatalf("open handles = %d, want 1 shared handle", got)
	}
}

func TestHTTPErrorsAndHealth(t *testing.T) {
	registry := NewRegistry()
	f := newFixture(t, registry)

	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(f.ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(f.ts.URL+"/v1/query", "application/json", strings.NewReader(`{"dataset":"x","query":"garbage"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d, want 400", resp.StatusCode)
	}

	if !strings.Contains(f.metricsText(), "sidrd_http_requests_total") {
		t.Fatal("metrics missing request counter")
	}
}

// TestQueueFullDetailAndExecGauges drives the daemon to admission
// rejection while the shared executor is busy: the 429 must carry a
// detail separating executor saturation from queue saturation
// (satellite 6), and /metrics must expose the executor gauges.
func TestQueueFullDetailAndExecGauges(t *testing.T) {
	gate := make(chan struct{})
	gateClosed := false
	defer func() {
		if !gateClosed {
			close(gate)
		}
	}()
	registry := NewRegistry()
	if err := registry.AddSynthetic("gated", []int64{16}, func(k []int64) float64 {
		<-gate
		return float64(k[0])
	}); err != nil {
		t.Fatal(err)
	}
	f := newFixtureCfg(t, registry, jobs.Config{MaxConcurrent: 1, ExecWorkers: 1, QueueDepth: 1})

	req := jobs.Request{Dataset: "gated", Query: "avg v[0 : 16] es {4}", Workers: 1}
	running := f.submit(req)
	f.waitState(running.ID, "running")
	// A running job has not necessarily handed its first task to the
	// executor yet; the detail below reads the executor, so wait for it.
	for deadline := time.Now().Add(10 * time.Second); f.mgr.ExecStats().Running < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the running job's task never reached the executor")
		}
	}
	// Distinct queries: identical ones would collapse onto the running
	// leader instead of consuming queue slots.
	req2 := req
	req2.Query = "avg v[0 : 16] es {8}"
	f.submit(req2) // fills the depth-1 queue

	// Third submission must be rejected with a structured 429.
	req3 := req
	req3.Query = "avg v[0 : 16] es {2}"
	body, _ := json.Marshal(req3)
	resp, err := http.Post(f.ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission = %d, want 429", resp.StatusCode)
	}
	var we wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if we.Error == "" || we.Detail == "" {
		t.Fatalf("429 envelope incomplete: %+v", we)
	}
	if !strings.Contains(we.Detail, "executor saturated") {
		t.Fatalf("429 detail = %q, want executor saturation called out", we.Detail)
	}

	text := f.metricsText()
	for _, m := range []string{
		"sidrd_exec_workers 1",
		"sidrd_exec_queue_depth",
		"sidrd_exec_tasks_runnable",
		"sidrd_exec_tasks_running 1",
		"sidrd_exec_peak_running 1",
		"sidrd_exec_tasks_dispatched_total",
	} {
		if !strings.Contains(text, m) {
			t.Fatalf("metrics missing %q:\n%s", m, text)
		}
	}

	close(gate)
	gateClosed = true
	f.waitState(running.ID, "done")
}
