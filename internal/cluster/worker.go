package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/faultinject"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/spillstore"
)

// WorkerConfig configures one worker process (or in-process instance).
type WorkerConfig struct {
	// Name is the worker's stable identity.
	Name string
	// SpillDir is ignored.
	//
	// Deprecated: spills are held in the worker's memory; a spill the
	// worker cannot serve is recovered by re-executing its split. The
	// field stays only because the benchmark harness (bench/cluster.go)
	// still sets it.
	SpillDir string
	// AdvertiseURL is the base URL the coordinator should dial this
	// worker at (e.g. "http://127.0.0.1:7101").
	AdvertiseURL string
	// CoordinatorURL, when set, is registered with and heartbeated by
	// Start.
	CoordinatorURL string
	// Heartbeat is the heartbeat period (default 1s).
	Heartbeat time.Duration
	// DialTimeout bounds dialing and TLS handshaking on the client that
	// performs registration and heartbeat requests (0 = 2s). The client
	// uses newTransport's phase-scoped timeouts (dial, TLS handshake,
	// response header) rather than a whole-request deadline.
	DialTimeout time.Duration
	// HeaderTimeout bounds that client's wait for response headers
	// (0 = 5s).
	HeaderTimeout time.Duration
	// Chaos, when set, injects worker-side faults into Map execution:
	// scheduled kills, delays and hangs (see internal/faultinject).
	Chaos *faultinject.Injector
	// Logf, when set, receives worker lifecycle logging.
	Logf func(format string, args ...any)
}

// Worker executes Map task attempts on behalf of a coordinator and
// serves the resulting partition+ keyblock spills over the shuffle
// endpoint. It is an http.Handler; mount it on any server.
type Worker struct {
	cfg      WorkerConfig
	mux      *http.ServeMux
	client   *http.Client
	store    *spillstore.Store
	mapsDone atomic.Int64
	running  atomic.Int64

	// draining refuses new Map dispatches (503) while spills keep being
	// served. drainCh closes (once) when the coordinator asks this
	// worker to drain via the heartbeat response.
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	mu   sync.Mutex
	jobs map[string]*workerJob
}

// workerJob caches one job's derived plan and opened dataset so every
// Map attempt of the job shares them. The entry is bound to the
// {Plan,Dataset} tuple via fingerprint: a request reusing the job ID
// with a different tuple (a restarted coordinator regenerating IDs)
// replaces the entry — and its spills — instead of silently executing
// against the stale plan. Entries live until released (POST
// /v1/release) or replaced.
type workerJob struct {
	fingerprint string // canonical {Plan,Dataset,Dataset2} encoding
	plan        *core.Plan
	input       mapreduce.MapInput
	// closer/closer2 are the ncfile handles of the job's inputs; closer2
	// is a join's side B, nil for a single-input job.
	closer, closer2 io.Closer
}

// jobFingerprint canonically encodes the plan-and-dataset tuple a job's
// cached state is valid for.
func jobFingerprint(req *mapRequest) string {
	b, _ := json.Marshal(struct {
		Plan     JobPlan      `json:"plan"`
		Dataset  DatasetSpec  `json:"dataset"`
		Dataset2 *DatasetSpec `json:"dataset2,omitempty"`
	}{req.Plan, req.Dataset, req.Dataset2})
	return string(b)
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	store, err := spillstore.New("")
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: newTransport(cfg.DialTimeout, cfg.HeaderTimeout)}
	w := &Worker{cfg: cfg, client: client, store: store,
		drainCh: make(chan struct{}), jobs: make(map[string]*workerJob)}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("POST /v1/map", w.handleMap)
	w.mux.HandleFunc("POST "+shuffleBatchPath, w.handleShuffleBatch)
	w.mux.HandleFunc("POST /v1/release", w.handleRelease)
	w.mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	return w, nil
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// Close releases cached dataset handles and every spill pack the
// worker holds.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for id, j := range w.jobs {
		if err := j.close(); err != nil && first == nil {
			first = err
		}
		delete(w.jobs, id)
	}
	if err := w.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Start registers with the coordinator and heartbeats until ctx is
// done. It retries registration until it succeeds, and re-registers
// when the coordinator forgets the worker (e.g. after a restart) —
// unless the worker is draining, in which case being forgotten means
// the drain completed and the loop exits instead of rejoining.
func (w *Worker) Start(ctx context.Context) {
	if w.cfg.CoordinatorURL == "" {
		return
	}
	registered := false
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		if !registered {
			registered = w.register(ctx)
		} else if !w.heartbeat(ctx) {
			if w.draining.Load() || w.drainSignaled() {
				return // released (or told to drain): the coordinator let us go
			}
			registered = false
			continue // re-register immediately
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (w *Worker) register(ctx context.Context) bool {
	body, _ := json.Marshal(registerRequest{Name: w.cfg.Name, URL: w.cfg.AdvertiseURL})
	ok := w.post(ctx, "/v1/cluster/register", body)
	if ok {
		w.logf("registered with %s as %q", w.cfg.CoordinatorURL, w.cfg.Name)
	}
	return ok
}

// heartbeat returns false when the worker should re-register (or, if
// draining, exit). A heartbeat response carrying the draining flag
// signals a coordinator-initiated drain.
func (w *Worker) heartbeat(ctx context.Context) bool {
	body, _ := json.Marshal(heartbeatRequest{Name: w.cfg.Name})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(w.cfg.CoordinatorURL, "/")+"/v1/cluster/heartbeat", strings.NewReader(string(body)))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusGone {
		// Drained and released by the coordinator — possibly before we
		// ever saw a draining heartbeat (idle-worker drain completes in
		// one watcher tick). Exit the drain path; never re-register.
		w.signalDrain()
		return false
	}
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var hb heartbeatResponse
	if json.NewDecoder(resp.Body).Decode(&hb) == nil && hb.Draining {
		w.signalDrain()
	}
	return true
}

// drainSignaled reports whether a drain has been signaled (by SIGTERM,
// Drain, or a coordinator heartbeat) without blocking.
func (w *Worker) drainSignaled() bool {
	select {
	case <-w.drainCh:
		return true
	default:
		return false
	}
}

// signalDrain closes the drain channel exactly once.
func (w *Worker) signalDrain() {
	w.drainOnce.Do(func() { close(w.drainCh) })
}

// DrainSignal is closed when the coordinator asks this worker to drain
// (via the heartbeat response). The process main should then run Drain.
func (w *Worker) DrainSignal() <-chan struct{} { return w.drainCh }

// Drain performs the worker side of a graceful exit: stop accepting Map
// dispatches, tell the coordinator to drain this worker (idempotent if
// the drain was coordinator-initiated), then keep heartbeating — and
// serving spills — until the coordinator releases us (heartbeat 404) or
// ctx expires. The HTTP server must stay up throughout; shut it down
// only after Drain returns.
func (w *Worker) Drain(ctx context.Context) error {
	w.draining.Store(true)
	w.signalDrain()
	if w.cfg.CoordinatorURL == "" {
		return nil
	}
	body, _ := json.Marshal(drainRequest{Name: w.cfg.Name})
	if !w.post(ctx, "/v1/drain", body) {
		return fmt.Errorf("cluster: drain request to %s failed", w.cfg.CoordinatorURL)
	}
	w.logf("draining: serving spills until every reduce that needs them has fetched them")
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if !w.heartbeat(ctx) {
			// Released (or the coordinator vanished — either way there is
			// nothing left to hand off to).
			w.logf("drained: released by coordinator")
			return nil
		}
	}
}

func (w *Worker) post(ctx context.Context, path string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(w.cfg.CoordinatorURL, "/")+path, strings.NewReader(string(body)))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// jobFor returns the cached job state, building it from the request's
// plan tuple and dataset spec on first use. A cached entry is reused
// only when its fingerprint matches the request; on mismatch the stale
// entry and its spills are dropped first, so a restarted coordinator
// that reuses a generated job ID never runs against the old job's plan
// or is served its spills.
func (w *Worker) jobFor(req *mapRequest) (*workerJob, error) {
	fp := jobFingerprint(req)
	w.mu.Lock()
	defer w.mu.Unlock()
	if j, ok := w.jobs[req.JobID]; ok {
		if j.fingerprint == fp {
			return j, nil
		}
		w.logf("job %s re-submitted with a different plan/dataset; dropping stale state", req.JobID)
		w.releaseLocked(req.JobID)
	}
	plan, err := req.Plan.newPlan()
	if err != nil {
		return nil, err
	}
	j := &workerJob{fingerprint: fp, plan: plan}
	reader, closer, err := openDataset(req.Dataset)
	if err != nil {
		return nil, err
	}
	j.closer = closer
	var reader2 coords.RecordReader
	if req.Dataset2 != nil {
		if reader2, j.closer2, err = openDataset(*req.Dataset2); err != nil {
			j.close()
			return nil, err
		}
	}
	if j.input, err = plan.TaskInput(reader, reader2); err != nil {
		j.close()
		return nil, err
	}
	w.jobs[req.JobID] = j
	return j, nil
}

// close releases the job's dataset handles and returns the first error.
func (j *workerJob) close() error {
	err := j.closer.Close()
	if j.closer2 != nil {
		if err2 := j.closer2.Close(); err == nil {
			err = err2
		}
	}
	return err
}

// releaseLocked drops one job's cached state and spill packs. Caller
// holds w.mu.
func (w *Worker) releaseLocked(jobID string) {
	if j, ok := w.jobs[jobID]; ok {
		j.close()
		delete(w.jobs, jobID)
	}
	w.store.ReleaseJob(jobID)
}

// handleRelease drops a resolved job's cached state and spills:
// POST /v1/release {"job_id": ...}. With both "split" and "attempt"
// set, the release is scoped to that single attempt's pack — the cached
// job state survives, because the job is still running (a
// speculation loser or superseded attempt is being reclaimed).
// Releasing an unknown job is a no-op (the coordinator broadcasts
// releases to every live worker).
func (w *Worker) handleRelease(rw http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad release request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !validJobID(req.JobID) {
		http.Error(rw, "bad job id", http.StatusBadRequest)
		return
	}
	if req.Split != nil && req.Attempt != nil {
		if *req.Split < 0 || *req.Attempt < 0 {
			http.Error(rw, "bad split/attempt", http.StatusBadRequest)
			return
		}
		w.store.ReleaseAttempt(req.JobID, *req.Split, *req.Attempt)
		w.logf("released job %s split %d attempt %d", req.JobID, *req.Split, *req.Attempt)
		rw.WriteHeader(http.StatusOK)
		return
	}
	w.mu.Lock()
	w.releaseLocked(req.JobID)
	w.mu.Unlock()
	held, jobs := w.store.Held()
	w.logf("released job %s; %d spill bytes held for %d jobs", req.JobID, held, jobs)
	rw.WriteHeader(http.StatusOK)
}

// openDataset opens a DatasetSpec's file and returns its record reader
// and the handle to close.
func openDataset(spec DatasetSpec) (coords.RecordReader, io.Closer, error) {
	if spec.Kind != "file" {
		return nil, nil, fmt.Errorf("cluster: unknown dataset kind %q", spec.Kind)
	}
	f, err := ncfile.Open(spec.Path)
	if err != nil {
		return nil, nil, err
	}
	return &mapreduce.FileReader{File: f, Var: spec.Variable}, f, nil
}

// handleMap executes one Map task attempt: run the shared ExecMap path,
// spill each fed keyblock's pairs with the kv codec (kv-count annotation
// in the header), and report the outputs. A spill is written for every
// keyblock in the plan's SplitToKB[split] — even empty ones — so a
// Reduce task performs exactly |I_ℓ| fetches and its annotation tally is
// complete.
func (w *Worker) handleMap(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		// Draining: no new work, but existing spills stay fetchable.
		http.Error(rw, "worker is draining", http.StatusServiceUnavailable)
		return
	}
	var req mapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad map request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.JobID == "" || !validJobID(req.JobID) {
		http.Error(rw, "bad job id", http.StatusBadRequest)
		return
	}
	j, err := w.jobFor(&req)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Split < 0 || req.Split >= len(j.plan.Splits) {
		http.Error(rw, fmt.Sprintf("split %d out of range [0,%d)", req.Split, len(j.plan.Splits)), http.StatusBadRequest)
		return
	}

	// Begin before the Map runs: the pack belongs to the job's store entry
	// as it stands now, so a release that lands while the Map runs
	// discards the pack at Commit instead of leaving it held.
	pw, err := w.store.Begin(req.JobID, req.Split, req.Attempt)
	if err != nil {
		http.Error(rw, "spill store: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer pw.Abort()
	w.running.Add(1)
	defer w.running.Add(-1)
	if w.cfg.Chaos != nil {
		// The injector may delay, hang until the request is abandoned, or
		// kill the process here — before any spill is written, so a
		// chaosed attempt never leaves partial output behind.
		if err := w.cfg.Chaos.BeforeMap(r.Context()); err != nil {
			http.Error(rw, "chaos: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	in := j.input
	in.Ctx = r.Context()
	outs, records, err := mapreduce.ExecMap(in, j.plan.Splits[req.Split])
	if err != nil {
		http.Error(rw, "map execution: "+err.Error(), http.StatusInternalServerError)
		return
	}
	rank := in.SpillRank()
	resp := mapResponse{JobID: req.JobID, Split: req.Split, Attempt: req.Attempt, Records: records}
	for _, kb := range j.plan.Graph.SplitToKB[req.Split] {
		out := outs[kb]
		n, err := pw.Append(kb, func(dst io.Writer) error {
			return kv.WriteSpillV3(dst, rank, out.SourceCount, out.Pairs, kv.V3Options{})
		})
		if err != nil {
			http.Error(rw, "spill write: "+err.Error(), http.StatusInternalServerError)
			return
		}
		resp.Outputs = append(resp.Outputs, keyblockMeta{
			Keyblock:    kb,
			Pairs:       len(out.Pairs),
			SourceCount: out.SourceCount,
			Bytes:       n,
		})
	}
	if err := pw.Commit(); err != nil {
		http.Error(rw, "spill commit: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.mapsDone.Add(1)
	w.logf("map job=%s split=%d attempt=%d records=%d keyblocks=%d",
		req.JobID, req.Split, req.Attempt, records, len(resp.Outputs))
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}

// validJobID rejects path-traversal in the url-embedded job id.
func validJobID(id string) bool {
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return id != ""
}

// handleShuffleBatch is the worker's one shuffle endpoint. It streams a
// Reduce task's spill subset held by this worker in one response: POST
// /v1/shuffle/batch with a batchFetchRequest body naming N≥1 spills of
// one keyblock. A spill is served only from a committed spillstore pack
// (a SectionReader over the pack's bytes in memory — no copy, no
// re-decode). Frames are emitted in request order — the coordinator's
// merge is order-sensitive — each a 24-byte SFRM header followed by the
// spill's exact bytes as the Map encoded them. Every spill is resolved
// before the status line is written, so a 200 always carries an exact
// precomputed Content-Length and every requested frame; the request
// context is checked between frames so an abandoned fetch stops
// taking the worker's bandwidth.
func (w *Worker) handleShuffleBatch(rw http.ResponseWriter, r *http.Request) {
	var req batchFetchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !validJobID(req.JobID) || req.Keyblock < 0 || len(req.Spills) == 0 {
		http.Error(rw, "bad batch request", http.StatusBadRequest)
		return
	}
	srcs := make([]*io.SectionReader, len(req.Spills))
	var total int64
	for i, ref := range req.Spills {
		if ref.Split < 0 || ref.Attempt < 0 {
			http.Error(rw, "bad split/attempt", http.StatusBadRequest)
			return
		}
		src, _, err := w.store.Open(req.JobID, ref.Split, ref.Attempt, req.Keyblock)
		if err != nil {
			http.Error(rw, fmt.Sprintf("no spill %d/%d for keyblock %d", ref.Split, ref.Attempt, req.Keyblock), http.StatusNotFound)
			return
		}
		srcs[i] = src
		total += frameHeaderLen + src.Size()
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	var hdr [frameHeaderLen]byte
	for i, ref := range req.Spills {
		if r.Context().Err() != nil {
			return // client gone; abandon the stream
		}
		putFrameHeader(hdr[:], ref.Split, ref.Attempt, req.Keyblock, srcs[i].Size())
		if _, err := rw.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.Copy(rw, srcs[i]); err != nil {
			return
		}
	}
}
