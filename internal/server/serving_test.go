package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"sidr/internal/datagen"
	"sidr/internal/jobs"
	"sidr/internal/wire"
)

// resultBytes fetches a finished job and returns the raw JSON of its
// "result" field — the wire bytes a client actually compares.
func resultBytes(t *testing.T, f *fixture, id string) string {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	res, ok := doc["result"]
	if !ok {
		t.Fatalf("job %s response has no result field", id)
	}
	return string(res)
}

// tempRegistry registers a 24×16 temperature grid as "temp", variable v.
func tempRegistry(t *testing.T) *Registry {
	t.Helper()
	registry := NewRegistry()
	addGenerated(t, registry, "temp", "v", []int64{24, 16}, datagen.Temperature(7))
	return registry
}

// TestRepeatQueryIsAByteIdenticalCacheHit is the serving tier's
// correctness spine over HTTP: a repeat query is a recorded cache hit
// with a byte-identical result, and the hit's stream is charged to the
// cache.
func TestRepeatQueryIsAByteIdenticalCacheHit(t *testing.T) {
	f := newFixture(t, tempRegistry(t))

	req := jobs.Request{Dataset: "temp", Query: "avg v[0,0 : 24,16] es {4,4}", Reducers: 4}
	run := func() jobs.Snapshot {
		t.Helper()
		snap := f.submit(req)
		f.waitState(snap.ID, "done")
		return snap
	}

	first := run()
	second := run()
	if !second.ResultHit {
		t.Fatalf("repeat query not served from cache: %+v", second)
	}
	if a, b := resultBytes(t, f, first.ID), resultBytes(t, f, second.ID); a != b {
		t.Fatalf("cached result bytes differ from original:\n%s\nvs\n%s", a, b)
	}
	// The hit's stream gives the entry its encoded bytes, on the cache's
	// account.
	cacheBytes := f.metrics.Gauge("sidrd_resultcache_bytes")
	plain := cacheBytes.Value()
	body, _ := f.streamBody(second.ID, "identity")
	if grown := cacheBytes.Value() - plain; grown < int64(len(body))-64 {
		t.Fatalf("streaming a hit grew the cache's bytes by %d; its identity stream alone is %d", grown, len(body))
	}
}

func TestTenantQuota429(t *testing.T) {
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
	f := newFixtureCfg(t, registry, jobs.Config{
		Tenants: map[string]jobs.TenantPolicy{"acme": {MaxInFlight: 1}},
	})

	post := func(query, tenant string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(jobs.Request{Dataset: "gated", Query: query, Workers: 1})
		hr, err := http.NewRequest("POST", f.ts.URL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			hr.Header.Set("X-SIDR-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("avg v[0 : 16] es {4}", "acme")
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first acme submit = %d, want 202", resp.StatusCode)
	}
	if snap.Tenant != "acme" {
		t.Fatalf("snapshot tenant = %q, want acme (header attribution)", snap.Tenant)
	}
	f.waitState(snap.ID, "running")

	// Distinct query (no collapse) from the same tenant: over quota.
	resp = post("sum v[0 : 16] es {4}", "acme")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	var we wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if we.Detail != wire.DetailTenantQuota {
		t.Fatalf("429 detail = %q, want %q", we.Detail, wire.DetailTenantQuota)
	}

	// The default tenant is not subject to acme's quota.
	resp2 := post("sum v[0 : 16] es {4}", "")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("default-tenant submit = %d, want 202", resp2.StatusCode)
	}

	gateClosed = true
	close(gate)
	f.waitState(snap.ID, "done")
}

// TestGzipStreamDeliversEarlyPartials asserts the flush-aware gzip
// path: with Accept-Encoding: gzip the NDJSON stream is compressed, yet
// early partials are decodable while the job is demonstrably still
// running — compression must not buffer first results until job end.
func TestGzipStreamDeliversEarlyPartials(t *testing.T) {
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
			<-gate
		}
		return float64(k[0]%7) + 0.5
	}); err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, registry)

	req := jobs.Request{Dataset: "blocky", Query: "avg v[0 : 64] es {4}", Reducers: 4, Workers: 1, SplitPoints: 8}
	snap := f.submit(req)

	hr, err := http.NewRequest("GET", f.ts.URL+"/v1/jobs/"+snap.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Set explicitly so the client does NOT transparently decompress; we
	// want to see the encoded stream.
	hr.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("stream Content-Encoding = %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("opening gzip stream: %v", err)
	}
	defer zr.Close()

	scanner := bufio.NewScanner(zr)
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
			if partials == 2 {
				// Two compressed partials decoded; the job must still be
				// running — its last keyblock is gated. This is the
				// first-partial-latency guarantee under compression.
				if st := f.jobState(snap.ID); st != "running" {
					t.Fatalf("after 2 gzip partials job state = %q, want running", st)
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
	if partials < 2 || done == nil || done.Result == nil {
		t.Fatalf("gzip stream: %d partials, done=%v", partials, done)
	}
}

// TestGzipJSONMatchesIdentity asserts a gzip job fetch decodes to the
// identity response's exact bytes.
func TestGzipJSONMatchesIdentity(t *testing.T) {
	f := newFixture(t, tempRegistry(t))
	snap := f.submit(jobs.Request{Dataset: "temp", Query: "avg v[0,0 : 24,16] es {4,4}", Reducers: 4})
	f.waitState(snap.ID, "done")

	get := func(gzipOn bool) []byte {
		t.Helper()
		hr, err := http.NewRequest("GET", f.ts.URL+"/v1/jobs/"+snap.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gzipOn {
			hr.Header.Set("Accept-Encoding", "gzip")
		} else {
			hr.Header.Set("Accept-Encoding", "identity")
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r io.Reader = resp.Body
		if gzipOn {
			if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
				t.Fatalf("Content-Encoding = %q, want gzip", ce)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			defer zr.Close()
			r = zr
		} else if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("identity request got Content-Encoding %q", ce)
		}
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	plain, zipped := get(false), get(true)
	if !bytes.Equal(plain, zipped) {
		t.Fatalf("gzip payload decodes differently:\n%s\nvs\n%s", zipped, plain)
	}
}
