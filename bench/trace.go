package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sidr/internal/mapreduce"
)

// span is one timed call into a layer, recorded by bench code only.
// Spans of one query share Query; Parent is the span that caused this
// one (0 for a query's root). Times are nanoseconds since the recorder
// was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced paths pay one nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// reserve hands out a span ID before the span's end is known, so a child
// recorded meanwhile (a worker handler under a client request) can name
// its parent.
func (r *recorder) reserve() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) put(id, parent, query int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Query: query, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a finished span and returns its ID.
func (r *recorder) add(parent, query int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.reserve()
	r.put(id, parent, query, name, start, end)
	return id
}

// all returns a copy of the spans recorded so far.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStat is one span name's totals over a run: Total sums durations,
// Self subtracts the part of each span its children cover.
type spanStat struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summarize folds spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it — children
// may overlap (parallel Map tasks under one query).
func summarize(spans []span) map[string]spanStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		edge := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.Total += float64(s.End-s.Start) / 1e9
		st.Self += float64(s.End-s.Start-covered) / 1e9
		out[s.Name] = st
	}
	return out
}

// spanRef rides a context from the bench's query call down to the HTTP
// requests the program makes on its behalf, so client spans find their
// query and parent.
type spanRef struct{ query, parent int64 }

type spanRefKey struct{}

func withSpan(ctx context.Context, query, parent int64) context.Context {
	return context.WithValue(ctx, spanRefKey{}, spanRef{query, parent})
}

const spanHeader = "X-Bench-Span"

// tracingTransport records one client span per request the coordinator
// makes for a traced query (named by URL path class) and tells the
// worker-side handler wrapper its ID. Requests outside a traced query
// (release broadcasts, untraced queries) pass straight through.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanRefKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.rec.reserve()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(ref.query, 10)+"/"+strconv.FormatInt(id, 10))
	name := "client" + pathClass(req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.put(id, ref.parent, ref.query, name, start, time.Now())
		return nil, err
	}
	// The span ends when the body is closed: a shuffle fetch is decoded
	// while it streams.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.rec.put(id, ref.parent, ref.query, name, start, time.Now())
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// pathClass maps a worker or daemon URL path to a span-name suffix.
func pathClass(p string) string {
	for _, c := range []struct{ prefix, name string }{
		{"/v1/map", ".map"},
		{"/v1/shuffle/", ".shuffle"},
		{"/v1/pack/", ".pack"},
		{"/v1/replicate", ".replicate"},
		{"/v1/release", ".release"},
		{"/v1/query", ".submit"},
		{"/v1/jobs/", ".stream"},
	} {
		if strings.HasPrefix(p, c.prefix) {
			return c.name
		}
	}
	return ".other"
}

// tracingHandler wraps a worker (or the daemon): requests stamped by
// tracingTransport get a server-side span under the client span, and
// every response's bytes are counted.
type tracingHandler struct {
	next  http.Handler
	rec   *recorder
	name  string // span-name prefix: "worker" or "server"
	mu    sync.Mutex
	bytes int64
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.mu.Lock()
	h.bytes += cw.n
	h.mu.Unlock()
	var query, parent int64
	if q, p, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
		query, _ = strconv.ParseInt(q, 10, 64)
		parent, _ = strconv.ParseInt(p, 10, 64)
	}
	if parent != 0 {
		h.rec.add(parent, query, h.name+pathClass(r.URL.Path), start, time.Now())
	}
}

func (h *tracingHandler) written() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// countingWriter counts response bytes and keeps Flush working: the
// daemon's NDJSON stream flushes after every partial.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// taskTimes is what one in-process run's event log says about its task
// schedule.
type taskTimes struct {
	mapTask, reduceTask float64       // summed Map / Reduce task busy seconds
	reduceWait          float64       // Σ over keyblocks: last dependency's MapEnd → ReduceStart, seconds
	first               time.Duration // run start → first commit of a keyblock with a value; 0 if none
}

// eventSpans turns a run's event log into task spans under the query's
// root span and derives the schedule figures from it. deps is the plan's
// I_ℓ (keyblock → splits); nonEmpty reports whether a keyblock's output
// carries a value.
func eventSpans(rec *recorder, root, query int64, res *mapreduce.Result, deps [][]int, nonEmpty func(kb int) bool) taskTimes {
	var tt taskTimes
	mapStart := make(map[int]time.Time)
	mapEnd := make(map[int]time.Time)
	redStart := make(map[int]time.Time)
	for _, e := range res.Events {
		switch e.Kind {
		case mapreduce.MapStart:
			mapStart[e.Detail] = e.At
		case mapreduce.MapEnd:
			mapEnd[e.Detail] = e.At
			rec.add(root, query, "mapreduce.map_task", mapStart[e.Detail], e.At)
			tt.mapTask += e.At.Sub(mapStart[e.Detail]).Seconds()
		case mapreduce.ReduceStart:
			redStart[e.Detail] = e.At
		case mapreduce.ReduceEnd:
			rec.add(root, query, "mapreduce.reduce_task", redStart[e.Detail], e.At)
			tt.reduceTask += e.At.Sub(redStart[e.Detail]).Seconds()
			if tt.first == 0 && nonEmpty(e.Detail) {
				tt.first = e.At.Sub(res.Started)
			}
		}
	}
	for kb, start := range redStart {
		var last time.Time
		for _, s := range deps[kb] {
			if mapEnd[s].After(last) {
				last = mapEnd[s]
			}
		}
		if !last.IsZero() && start.After(last) {
			tt.reduceWait += start.Sub(last).Seconds()
		}
	}
	return tt
}
