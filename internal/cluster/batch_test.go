package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sidr/internal/kv"
	"sidr/internal/metrics"
)

// TestBatchedVsPerSpillParity keeps its name from when a per-spill path
// existed to compare against; it is now the single byte-identity run of
// the one shuffle path: Σ|I_ℓ| spills, carried by fewer requests
// (TestShuffleAccountingMetrics pins the rest of the accounting).
func TestBatchedVsPerSpillParity(t *testing.T) {
	c, _ := startCluster(t, 2, CoordinatorConfig{})
	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesInProcess(t, res)
	want := res.Plan.Graph.SIDRConnections()
	if res.Counters.Connections != want {
		t.Fatalf("connections = %d, want Σ|I_ℓ| = %d", res.Counters.Connections, want)
	}
	if res.Counters.ShuffleRequests >= want {
		t.Fatalf("batching saved nothing: %d requests for %d spills", res.Counters.ShuffleRequests, want)
	}
}

// TestBatchEndpointFraming drives POST /v1/shuffle/batch directly and
// checks the wire contract: frames in request order, each spill's
// exact bytes behind a 24-byte SFRM header, an exact Content-Length,
// and clean rejections for missing spills and bad requests.
func TestBatchEndpointFraming(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Name: "w0", SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv := httptest.NewServer(w)
	defer srv.Close()

	// Commit one pack per split (the store serves bytes opaquely, so any
	// bytes do), with distinct sizes so frame lengths are telling.
	payloads := map[int][]byte{
		0: []byte("split zero spill bytes"),
		1: bytes.Repeat([]byte{0xAB}, 1000),
		2: {}, // empty spill still gets a frame
	}
	for split, b := range payloads {
		commitSpill(t, w, "job-x", split, 0, 5, b)
	}

	post := func(req BatchFetchRequest) *http.Response {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+shuffleBatchPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Deliberately not ascending: frames must come back in request order.
	order := []int{1, 0, 2}
	refs := make([]SpillRef, len(order))
	for i, s := range order {
		refs[i] = SpillRef{Split: s, Attempt: 0}
	}
	resp := post(BatchFetchRequest{JobID: "job-x", Keyblock: 5, Spills: refs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch returned %d", resp.StatusCode)
	}
	var wantLen int64
	for _, b := range payloads {
		wantLen += frameHeaderLen + int64(len(b))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.FormatInt(wantLen, 10) {
		t.Fatalf("Content-Length = %q, want %d", got, wantLen)
	}
	stream := make([]byte, 0, wantLen)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		stream = append(stream, buf[:n]...)
		if err != nil {
			break
		}
	}
	if int64(len(stream)) != wantLen {
		t.Fatalf("stream length %d, want %d", len(stream), wantLen)
	}
	off := 0
	for _, s := range order {
		split, attempt, kb, length, err := parseFrameHeader(stream[off : off+frameHeaderLen])
		if err != nil {
			t.Fatalf("frame header at %d: %v", off, err)
		}
		if split != s || attempt != 0 || kb != 5 || length != int64(len(payloads[s])) {
			t.Fatalf("frame = (%d,%d,%d,%d), want (%d,0,5,%d)", split, attempt, kb, length, s, len(payloads[s]))
		}
		off += frameHeaderLen
		if !bytes.Equal(stream[off:off+int(length)], payloads[s]) {
			t.Fatalf("split %d frame bytes differ from the committed spill", s)
		}
		off += int(length)
	}

	// One missing spill fails the whole batch before any byte streams.
	if resp := post(BatchFetchRequest{JobID: "job-x", Keyblock: 5,
		Spills: []SpillRef{{Split: 0, Attempt: 0}, {Split: 9, Attempt: 0}}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing spill → %d, want 404", resp.StatusCode)
	}
	if resp := post(BatchFetchRequest{JobID: "job-x", Keyblock: -1,
		Spills: []SpillRef{{Split: 0, Attempt: 0}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative keyblock → %d, want 400", resp.StatusCode)
	}
	if resp := post(BatchFetchRequest{JobID: "job-x", Keyblock: 5}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spill list → %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + shuffleBatchPath)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on batch endpoint → %d, want 405", getResp.StatusCode)
	}
}

// commitSpill commits a pack holding one keyblock's bytes for (job,
// split, attempt) in the worker's spill store.
func commitSpill(t *testing.T, w *Worker, job string, split, attempt, kb int, b []byte) {
	t.Helper()
	pw, err := w.store.Begin(job, split, attempt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Append(kb, func(dst io.Writer) error {
		_, err := dst.Write(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlyCommittedPacksAreServed: a spill exists for the shuffle only
// as an entry of a committed spillstore pack, reachable only through
// POST /v1/shuffle/batch. A kb-N.spill file dropped into SpillDir where
// the retired per-keyblock layout kept it is not served, and the
// retired per-spill GET route is gone.
func TestOnlyCommittedPacksAreServed(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWorker(WorkerConfig{Name: "w0", SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv := httptest.NewServer(w)
	defer srv.Close()

	var spill bytes.Buffer
	if err := kv.WriteSpillV3(&spill, 1, 0, nil, kv.V3Options{}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "j", "0-0", "kb-0.spill")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, spill.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(BatchFetchRequest{JobID: "j", Keyblock: 0, Spills: []SpillRef{{Split: 0, Attempt: 0}}})
	resp, err := http.Post(srv.URL+shuffleBatchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("loose spill file → %d from the batch endpoint, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/shuffle/j/0/0/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/shuffle/j/0/0/0 → %d, want 404 or 405", resp.StatusCode)
	}

	// The same bytes committed through the store are served.
	commitSpill(t, w, "j", 0, 0, 0, spill.Bytes())
	resp, err = http.Post(srv.URL+shuffleBatchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("committed spill → %d, want 200", resp.StatusCode)
	}
}

// TestRetryIsABatchOfOne: when a multi-spill fetch fails, its spills
// are re-fetched through the very same endpoint, one per request. Every
// worker fails its first multi-spill shuffle request (which worker hosts
// which spill is scheduling-dependent, so a worker's very first request
// may name a single spill) and fails the test on any request under
// /v1/shuffle/ that is not the batch endpoint.
func TestRetryIsABatchOfOne(t *testing.T) {
	var (
		mu       sync.Mutex
		failed   = map[int]bool{} // worker → its first multi-spill request was failed
		sizes    []int            // spills named by each request let through
		badPaths []string
	)
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/shuffle") {
				h.ServeHTTP(rw, r)
				return
			}
			if r.URL.Path != shuffleBatchPath {
				mu.Lock()
				badPaths = append(badPaths, r.Method+" "+r.URL.Path)
				mu.Unlock()
				http.Error(rw, "no such route", http.StatusNotFound)
				return
			}
			raw, _ := io.ReadAll(r.Body)
			var req BatchFetchRequest
			json.Unmarshal(raw, &req)
			mu.Lock()
			first := !failed[i] && len(req.Spills) > 1
			if first {
				failed[i] = true
			} else {
				sizes = append(sizes, len(req.Spills))
			}
			mu.Unlock()
			if first {
				http.Error(rw, "injected first-fetch failure", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
			h.ServeHTTP(rw, r)
		})
	}
	c, _ := startChaosCluster(t, 2, CoordinatorConfig{}, nil, wrap)
	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesInProcess(t, res)
	mu.Lock()
	defer mu.Unlock()
	if len(badPaths) != 0 {
		t.Fatalf("shuffle requests off the one endpoint: %v", badPaths)
	}
	if len(failed) == 0 {
		t.Fatal("no worker received a multi-spill request, so no fault was injected")
	}
	if res.Counters.BatchFallbacks == 0 {
		t.Fatal("no failed multi-spill fetch was counted as a fallback")
	}
	singles := 0
	for _, n := range sizes {
		if n == 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Fatalf("no retry arrived as a batch of one (request sizes %v)", sizes)
	}
	if want := res.Plan.Graph.SIDRConnections(); res.Counters.Connections != want {
		t.Fatalf("connections = %d, want Σ|I_ℓ| = %d", res.Counters.Connections, want)
	}
	if res.Counters.Reexecuted != 0 {
		t.Fatalf("%d re-executions: a transient fetch failure must be absorbed by the retry", res.Counters.Reexecuted)
	}
}

// rewriteMapResponses interposes on workers' /v1/map endpoints: fn edits
// each successful response before the coordinator sees it and reports
// whether it did, up to limit edits across all workers (0 = no limit).
func rewriteMapResponses(t *testing.T, limit int64, fn func(*MapResponse) bool) func(int, http.Handler) http.Handler {
	var edits atomic.Int64
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/map" {
				h.ServeHTTP(rw, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && (limit == 0 || edits.Add(1) <= limit) {
				var mr MapResponse
				if err := json.Unmarshal(body, &mr); err != nil {
					t.Errorf("map response unusable: %v: %s", err, body)
				} else if fn(&mr) {
					body, _ = json.Marshal(mr)
				}
			}
			rw.WriteHeader(rec.Code)
			rw.Write(body)
		})
	}
}

// runWithBadMapResponse runs the test job on two workers with the first
// Map response damaged on its way to the coordinator. A response the
// coordinator cannot record is a failed attempt: re-dispatched, never
// recorded, and never leaving its task without an output.
func runWithBadMapResponse(t *testing.T, damage func(*MapResponse) bool) {
	t.Helper()
	reg := metrics.New()
	c, _ := startChaosCluster(t, 2, CoordinatorConfig{Metrics: reg}, nil, rewriteMapResponses(t, 1, damage))
	res, err := runClusterJob(t, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesInProcess(t, res)
	if res.Counters.Retried == 0 {
		t.Fatal("the bad map response was not re-dispatched")
	}
	if got := reg.Counter("sidrd_cluster_tasks_retried_total").Value(); got != res.Counters.Retried {
		t.Fatalf("sidrd_cluster_tasks_retried_total = %d, the job retried %d", got, res.Counters.Retried)
	}
	if want := int64(len(res.Plan.Splits)) + res.Counters.Retried; res.Counters.MapsDispatched != want {
		t.Fatalf("maps dispatched = %d, want splits + retries = %d", res.Counters.MapsDispatched, want)
	}
}

// TestIncompleteMapResponseRedispatched: a Map response that omits the
// spill metadata of a keyblock its split feeds is a failed attempt,
// because every shuffle fetch validates against that metadata.
func TestIncompleteMapResponseRedispatched(t *testing.T) {
	runWithBadMapResponse(t, func(mr *MapResponse) bool {
		if len(mr.Outputs) == 0 {
			t.Errorf("first map response has no outputs to drop")
			return false
		}
		mr.Outputs = mr.Outputs[1:]
		return true
	})
}

// TestWrongAttemptMapResponseRedispatched: so is one that answers for
// another attempt than the one dispatched.
func TestWrongAttemptMapResponseRedispatched(t *testing.T) {
	runWithBadMapResponse(t, func(mr *MapResponse) bool { mr.Attempt += 7; return true })
}
