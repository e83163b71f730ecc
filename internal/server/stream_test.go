package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sidr/internal/jobs"
)

// rampRegistry registers "ramp": a 64×8 grid whose value is its row
// number, so filter_gt with a threshold in the middle leaves whole
// keyblocks without a survivor.
func rampRegistry(t testing.TB, rows int64) *Registry {
	t.Helper()
	registry := NewRegistry()
	if err := registry.AddSynthetic("ramp", []int64{rows, 8}, func(k []int64) float64 { return float64(k[0]) + 0.25 }); err != nil {
		t.Fatal(err)
	}
	return registry
}

// streamBody fetches a job's stream with the given Accept-Encoding set
// explicitly — so the client does not decode it — and returns the body as
// sent.
func (f *fixture) streamBody(id, acceptEncoding string) ([]byte, http.Header) {
	f.t.Helper()
	hr, err := http.NewRequest("GET", f.ts.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		f.t.Fatal(err)
	}
	hr.Header.Set("Accept-Encoding", acceptEncoding)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("stream of %s: status %d", id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	return b, resp.Header
}

// gunzipOneMember decodes body as exactly one gzip member: the reader
// must reach io.EOF — CRC-32 and ISIZE checked — with nothing left over.
func gunzipOneMember(t *testing.T, body []byte) []byte {
	t.Helper()
	rest := bytes.NewReader(body)
	zr, err := gzip.NewReader(rest)
	if err != nil {
		t.Fatalf("opening the gzip member: %v", err)
	}
	zr.Multistream(false)
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reading the gzip member: %v", err)
	}
	if rest.Len() != 0 {
		t.Fatalf("%d bytes follow the gzip member", rest.Len())
	}
	return plain
}

// TestCachedStreamIsTheLeadersStream: the stream a result-cache hit is
// sent from the entry's cached bytes is, byte for byte, the stream the
// executing job sent event by event — under the hit's own job ID — and
// its gzip form is one well-formed member that decodes to exactly those
// bytes. The filter query contributes partials without rows.
func TestCachedStreamIsTheLeadersStream(t *testing.T) {
	f := newFixture(t, rampRegistry(t, 64))
	for _, q := range []string{
		"avg v[0,0 : 64,8] es {4,4}",
		"median v[0,0 : 64,8] es {4,4}",
		"filter_gt v[0,0 : 64,8] es {4,4} param 40",
	} {
		t.Run(strings.Fields(q)[0], func(t *testing.T) {
			req := jobs.Request{Dataset: "ramp", Query: q, Reducers: 4}
			leader := f.submit(req)
			f.waitState(leader.ID, "done")
			hit := f.submit(req)
			if leader.ResultHit || !hit.ResultHit {
				t.Fatalf("want an executed leader then a hit, got %+v then %+v", leader, hit)
			}
			live, _ := f.streamBody(leader.ID, "identity")
			if n := bytes.Count(live, []byte{'\n'}); n != 5 {
				t.Fatalf("leader's stream has %d lines, want 4 partials and done:\n%s", n, live)
			}
			if strings.HasPrefix(q, "filter") && !bytes.Contains(live, []byte(`"keys":{"corner":[],"shape":[],"runs":[]},"values":[]`)) {
				t.Fatalf("the filter's stream has no empty partial:\n%s", live)
			}

			for pass := 0; pass < 2; pass++ { // the encoding pass, then a pure replay
				cached, h := f.streamBody(hit.ID, "identity")
				if want := bytes.ReplaceAll(live, []byte(leader.ID), []byte(hit.ID)); !bytes.Equal(cached, want) {
					t.Fatalf("hit's identity stream differs from the leader's:\n%s\nvs\n%s", cached, want)
				}
				if h.Get("Content-Encoding") != "" || h.Get("Content-Length") != fmt.Sprint(len(cached)) {
					t.Fatalf("identity hit headers: %v", h)
				}
				zipped, h := f.streamBody(hit.ID, "gzip")
				if h.Get("Content-Encoding") != "gzip" || h.Get("Content-Length") != fmt.Sprint(len(zipped)) {
					t.Fatalf("gzip hit headers: %v", h)
				}
				if plain := gunzipOneMember(t, zipped); !bytes.Equal(plain, cached) {
					t.Fatalf("hit's gzip stream decodes differently:\n%s\nvs\n%s", plain, cached)
				}
			}
			// The live path's gzip — pooled, BestSpeed — is held to the same.
			zipped, _ := f.streamBody(leader.ID, "gzip")
			if plain := gunzipOneMember(t, zipped); !bytes.Equal(plain, live) {
				t.Fatalf("leader's gzip stream decodes differently:\n%s\nvs\n%s", plain, live)
			}
		})
	}
}

// discardWriter is the cheapest ResponseWriter: what the handler
// allocates is the handler's.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// serveStream runs GET /v1/jobs/{id}/stream through the daemon's handler
// itself, no network in between.
func (f *fixture) serveStream(w http.ResponseWriter, id, acceptEncoding string) {
	hr := httptest.NewRequest("GET", "/v1/jobs/"+id+"/stream", nil)
	hr.Header.Set("Accept-Encoding", acceptEncoding)
	f.ts.Config.Handler.ServeHTTP(w, hr)
}

// runTwice submits req twice, waiting for each job, and returns the
// second job's ID: a result-cache hit.
func (f *fixture) runTwice(req jobs.Request) string {
	f.t.Helper()
	var snap jobs.Snapshot
	for i := 0; i < 2; i++ {
		snap = f.submit(req)
		f.waitState(snap.ID, "done")
	}
	if !snap.ResultHit {
		f.t.Fatalf("the repeat submission is not a result-cache hit: %+v", snap)
	}
	return snap.ID
}

// TestCachedStreamHitIsWritesOnly: once an entry is encoded, serving a hit
// runs neither the JSON encoder nor a compressor — the entry is never
// encoded a second time and no stream takes the live path — and the
// handler's allocations are a small constant whatever the result's size.
func TestCachedStreamHitIsWritesOnly(t *testing.T) {
	allocs := map[int64]float64{}
	for _, rows := range []int64{64, 4096} {
		f := newFixture(t, rampRegistry(t, rows))
		hit := f.runTwice(jobs.Request{Dataset: "ramp", Query: fmt.Sprintf("avg v[0,0 : %d,8] es {4,4}", rows), Reducers: 4})
		counters := func() [3]int64 {
			return [3]int64{f.metrics.Counter("sidrd_resultcache_encodes_total").Value(),
				f.metrics.Counter("sidrd_streams_live_total").Value(), f.metrics.Counter("sidrd_streams_cached_total").Value()}
		}
		first := httptest.NewRecorder()
		f.serveStream(first, hit, "gzip")
		if got := counters(); got != [3]int64{1, 0, 1} {
			t.Fatalf("after the first hit {encodes, live, cached} = %v, want {1 0 1}", got)
		}
		second := httptest.NewRecorder()
		f.serveStream(second, hit, "gzip")
		if got := counters(); got != [3]int64{1, 0, 2} {
			t.Fatalf("after the second hit {encodes, live, cached} = %v, want {1 0 2}: it encoded or compressed again", got)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatal("two hits of one job were sent different bytes")
		}
		for _, enc := range []string{"gzip", "identity"} {
			w := &discardWriter{h: make(http.Header)}
			allocs[rows] += testing.AllocsPerRun(20, func() {
				clear(w.h)
				f.serveStream(w, hit, enc)
			})
			if w.n < int(rows) {
				t.Fatalf("%s hit wrote %d bytes", enc, w.n)
			}
		}
	}
	// The request, the mux's match and the response headers allocate; the
	// result's rows must not.
	if allocs[64] > 60 || allocs[4096] > allocs[64]+2 {
		t.Fatalf("allocations per gzip + identity hit: %v for 64 and 4096 input rows; want a small constant", allocs)
	}
}

func TestAcceptsGzip(t *testing.T) {
	for header, want := range map[string]bool{
		"gzip":                 true,
		"gzip;q=0":             false,
		"gzip;q=0.0":           false,
		"gzip;q=0.000":         false,
		"gzip;q=0.001":         true,
		"gzip; q=1":            true,
		"gzip;Q=0.5":           true,
		"deflate, gzip;q=0.5":  true,
		"deflate, gzip;q=0.00": false,
		"gzip;q=":              false,
		"gzip;q=high":          false,
		"gzip;q=2":             false,
		"gzip;level=9":         false,
		"identity":             false,
		"":                     false,
	} {
		r := httptest.NewRequest("GET", "/", nil)
		r.Header.Set("Accept-Encoding", header)
		if got := acceptsGzip(r); got != want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", header, got, want)
		}
	}
}

// benchStream measures GET /v1/jobs/{id}/stream through the handler for a
// serve_mix-sized result (131 072 points, 2 048 rows, ≈ 107 KB of
// NDJSON): the executed job's stream takes the live path, a repeat
// submission's is a result-cache hit.
func benchStream(b *testing.B, hit bool) {
	registry := NewRegistry()
	if err := registry.AddSynthetic("grid", []int64{32, 64, 64}, func(k []int64) float64 {
		return float64(k[0]*31+k[1]*17+k[2]) / 7
	}); err != nil {
		b.Fatal(err)
	}
	f := newFixture(b, registry)
	req := jobs.Request{Dataset: "grid", Query: "avg v[0,0,0 : 32,64,64] es {4,4,4}"}
	var id string
	if hit {
		id = f.runTwice(req)
	} else {
		id = f.submit(req).ID
		f.waitState(id, "done")
	}
	for _, enc := range []string{"identity", "gzip"} {
		b.Run(enc, func(b *testing.B) {
			plain := &discardWriter{h: make(http.Header)}
			f.serveStream(plain, id, "identity") // a hit's first stream encodes the entry
			b.SetBytes(int64(plain.n))
			b.ReportAllocs()
			b.ResetTimer()
			w := &discardWriter{h: make(http.Header)}
			for i := 0; i < b.N; i++ {
				f.serveStream(w, id, enc)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "wire-B/op")
		})
	}
}

func BenchmarkStreamHit(b *testing.B)  { benchStream(b, true) }
func BenchmarkStreamCold(b *testing.B) { benchStream(b, false) }
