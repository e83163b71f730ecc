// Package server exposes the query engine over HTTP. It is the wire
// surface of sidrd:
//
//	POST   /v1/query            submit a query; 202 + job snapshot
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/stream NDJSON: each keyblock's output the
//	                            moment it commits (SIDR's early correct
//	                            results over the wire), then a terminal
//	                            done/failed/cancelled event
//	GET    /v1/datasets         registered datasets and their variables
//	GET    /metrics             plain-text metrics exposition
//	GET    /healthz             liveness probe
//
// Query-API responses (JSON and the NDJSON stream) are gzip-compressed
// when the client sends Accept-Encoding: gzip; the stream's compressor
// is flushed with every partial so compression never delays an early
// result. The stream of a job served from the result cache is not
// encoded or compressed at all: it is written from the bytes the cache
// entry keeps (gzip.go). Submissions are attributed to the tenant named by the
// X-SIDR-Tenant header (default "default") for per-tenant admission
// quotas and weighted scheduling; quota breaches answer 429 with
// detail "tenant-quota".
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"sidr"
	"sidr/internal/cluster"
	"sidr/internal/jobs"
	"sidr/internal/metrics"
	"sidr/internal/wire"
)

// Server routes daemon HTTP traffic. Create with New.
type Server struct {
	mgr      *jobs.Manager
	registry *Registry
	metrics  *metrics.Registry
	mux      *http.ServeMux
	requests *metrics.Counter
	// How each stream was served: from a cache entry's encoded bytes, or
	// encoded and compressed event by event.
	streamsCached, streamsLive *metrics.Counter
}

// New wires the handler set. The first three dependencies are required;
// coord may be nil for a daemon without clustering. When set, the
// coordinator's worker endpoints (/v1/cluster/register, heartbeat,
// workers) are mounted alongside the query API.
func New(mgr *jobs.Manager, registry *Registry, reg *metrics.Registry, coord *cluster.Coordinator) *Server {
	s := &Server{
		mgr:      mgr,
		registry: registry,
		metrics:  reg,
		mux:      http.NewServeMux(),
		requests: reg.Counter("sidrd_http_requests_total"),

		streamsCached: reg.Counter("sidrd_streams_cached_total"),
		streamsLive:   reg.Counter("sidrd_streams_live_total"),
	}
	s.mux.HandleFunc("POST /v1/query", gzipped(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", gzipped(s.handleListJobs))
	s.mux.HandleFunc("GET /v1/jobs/{id}", gzipped(s.handleGetJob))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream) // negotiates its own encoding
	s.mux.HandleFunc("GET /v1/datasets", gzipped(s.handleDatasets))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if coord != nil {
		coord.Mount(s.mux)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wire.Error{Error: err.Error(), Detail: errorDetail(err)})
}

// errorDetail maps runtime errors onto the wire detail vocabulary so
// clients can react to cluster saturation without parsing error text.
func errorDetail(err error) string {
	switch {
	case errors.Is(err, cluster.ErrNoWorkers):
		return wire.DetailNoWorkers
	// ErrSpillCorrupt is checked before ErrRetryExhausted: an attempt
	// budget spent on checksum failures wraps both sentinels, and the
	// integrity cause is the one clients need to see.
	case errors.Is(err, cluster.ErrSpillCorrupt):
		return wire.DetailSpillCorrupt
	case errors.Is(err, cluster.ErrRetryExhausted):
		return wire.DetailShuffleRetryExhausted
	case errors.Is(err, jobs.ErrTenantQuota):
		return wire.DetailTenantQuota
	}
	return ""
}

// rejectFull answers a queue-full submission with a 429 whose detail
// separates executor saturation from pure admission saturation: the job
// queue being full with an idle executor means jobs are arriving faster
// than workers pick them up, while a saturated executor means the
// machine is out of task capacity.
func (s *Server) rejectFull(w http.ResponseWriter, err error) {
	st := s.mgr.ExecStats()
	var detail string
	if st.Queued > 0 || st.Running >= st.Workers {
		detail = fmt.Sprintf("executor saturated: %d/%d workers busy, %d tasks queued",
			st.Running, st.Workers, st.Queued)
	} else {
		detail = fmt.Sprintf("admission queue full; executor has capacity (%d/%d workers busy)",
			st.Running, st.Workers)
	}
	writeJSON(w, http.StatusTooManyRequests, wire.Error{Error: err.Error(), Detail: detail})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// The header is the authoritative tenant identity: it overrides a
	// body field so a proxy stamping X-SIDR-Tenant cannot be bypassed by
	// request payloads.
	if t := r.Header.Get("X-SIDR-Tenant"); t != "" {
		req.Tenant = t
	}
	j, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.rejectFull(w, err)
	case errors.Is(err, jobs.ErrTenantQuota):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, cluster.ErrNoWorkers):
		// The cluster has no live worker: retryable once workers
		// register, so 503 rather than a client error.
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Jobs())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	// Completed jobs carry the assembled result inline.
	type jobView struct {
		jobs.Snapshot
		Result *wire.Result `json:"result,omitempty"`
	}
	writeJSON(w, http.StatusOK, jobView{Snapshot: j.Snapshot(), Result: wire.FromResult(j.Result())})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleStream sends a job's NDJSON stream. A job served from the result
// cache holds its whole stream already encoded, and sending it is a few
// Writes (writeCachedStream); any other job is encoded event by event as
// its keyblocks commit.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Get(r.PathValue("id"))
	var events []wire.EncodedEvent
	if err == nil {
		if events, err = j.EncodedStream(); err != nil {
			err = fmt.Errorf("encoding the cached stream: %w", err)
		}
	}
	if events != nil {
		s.streamsCached.Inc()
		writeCachedStream(w, r, j.ID, events)
		return
	}
	w, done := compressed(w, r)
	defer done()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	s.streamsLive.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush() // commit headers before the first keyblock lands

	var head []byte
	send := func(ev wire.StreamEvent) error {
		tail, err := wire.EventTail(ev)
		if err != nil {
			return err
		}
		head = wire.AppendEventHead(head[:0], ev.Type, j.ID)
		if _, err := w.Write(head); err != nil {
			return err
		}
		if _, err := w.Write(tail); err != nil {
			return err
		}
		flush()
		return nil
	}
	state, err := j.Stream(r.Context(), func(pr sidr.PartialResult) error {
		p := wire.FromPartial(pr)
		return send(wire.StreamEvent{Type: wire.EventPartial, Partial: &p})
	})
	if err != nil {
		return // client gone or write failed; nothing more to say
	}
	var final wire.StreamEvent
	switch state {
	case jobs.Done:
		final.Type = wire.EventDone
		final.Result = wire.FromResult(j.Result())
	case jobs.Cancelled:
		final.Type = wire.EventCancelled
		if jerr := j.Err(); jerr != nil {
			final.Error = jerr.Error()
		}
	default:
		final.Type = wire.EventFailed
		if jerr := j.Err(); jerr != nil {
			final.Error = jerr.Error()
			final.Detail = errorDetail(jerr)
		}
	}
	send(final)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Gauge("sidrd_datasets_open").Set(int64(s.registry.OpenHandles()))
	s.metrics.Gauge("sidrd_sidx_index_bytes").Set(s.registry.IndexBytes())
	st := s.mgr.ExecStats()
	s.metrics.Gauge("sidrd_exec_workers").Set(int64(st.Workers))
	s.metrics.Gauge("sidrd_exec_queue_depth").Set(int64(st.Queued))
	s.metrics.Gauge("sidrd_exec_tasks_runnable").Set(int64(st.Runnable))
	s.metrics.Gauge("sidrd_exec_tasks_running").Set(int64(st.Running))
	s.metrics.Gauge("sidrd_exec_peak_running").Set(int64(st.PeakRunning))
	disp := s.metrics.Counter("sidrd_exec_tasks_dispatched_total")
	disp.Add(st.Dispatched - disp.Value()) // sync the counter to the executor's total
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
