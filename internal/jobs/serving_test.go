package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sidr"
	"sidr/internal/metrics"
	"sidr/internal/wire"
)

// versionedProvider is a fakeProvider that also implements
// VersionProvider, unlocking the result-cache and collapse fast paths.
// bump simulates a re-registration; gate, when set, blocks every point
// read until released so runs stay in flight under test control.
type versionedProvider struct {
	mu    sync.Mutex
	gens  map[string]int
	shape []int64
	gate  chan struct{}
}

func newVersionedProvider(shape []int64) *versionedProvider {
	return &versionedProvider{gens: make(map[string]int), shape: shape}
}

func (p *versionedProvider) Acquire(name, variable string) (*sidr.Dataset, func(), error) {
	p.mu.Lock()
	gen := p.gens[name]
	gate := p.gate
	p.mu.Unlock()
	ds, err := sidr.Synthetic(p.shape, func(k []int64) float64 {
		if gate != nil {
			<-gate
		}
		// Contents depend on the generation, like a re-registered file.
		return float64(k[0] + int64(gen)*1000)
	})
	if err != nil {
		return nil, nil, err
	}
	return ds, func() { ds.Close() }, nil
}

func (p *versionedProvider) DatasetVersion(name, variable string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("%s#%d", name, p.gens[name]), true
}

func (p *versionedProvider) bump(name string) {
	p.mu.Lock()
	p.gens[name]++
	p.mu.Unlock()
}

// wireBytes renders a result exactly as the HTTP layer would: the final
// result document plus the replayed partial sequence.
func wireBytes(t *testing.T, res *sidr.Result) string {
	t.Helper()
	b, err := json.Marshal(wire.FromResult(res))
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for i := range res.Partials {
		p := wire.FromPartial(res.Partials[i])
		pb, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		out += "\n" + string(pb)
	}
	return out
}

func TestResultCacheServesByteIdenticalRepeat(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32}), Metrics: reg})

	j1, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j1.Wait(context.Background()); st != Done {
		t.Fatalf("first run state = %v", st)
	}

	// Textual variant of the same query: canonicalization must land it on
	// the same cache entry.
	j2, err := m.Submit(Request{Dataset: "d", Query: "avg   v[ 0,0 : 32,32 ]  es {4,4}", Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := j2.Wait(context.Background()); st != Done {
		t.Fatalf("cached run state = %v", st)
	}
	if !j2.Snapshot().ResultHit {
		t.Fatal("second identical submission not marked result_cache_hit")
	}
	if got, want := wireBytes(t, j2.Result()), wireBytes(t, j1.Result()); got != want {
		t.Fatalf("cached wire bytes differ from original:\n%s\nvs\n%s", got, want)
	}
	if got := reg.Counter("sidrd_jobs_done_total").Value(); got != 1 {
		t.Fatalf("executions = %d, want 1 (repeat must not re-run)", got)
	}
	if got := reg.Counter("sidrd_resultcache_hits_total").Value(); got != 1 {
		t.Fatalf("result-cache hits = %d, want 1", got)
	}
	// The cached job replays the full partial sequence.
	if got, want := j2.Snapshot().Partials, j1.Snapshot().Partials; got != want {
		t.Fatalf("cached job replays %d partials, original had %d", got, want)
	}
}

// TestCacheHitReplaysTheLeadersStream: a job's result keeps the job's
// own partial log — shared storage, not a second copy stamped and ordered
// by the event log — so the stream a result-cache hit replays is byte for
// byte, commit timestamps and keyblock order included, what the first
// client was sent.
func TestCacheHitReplaysTheLeadersStream(t *testing.T) {
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32})})
	stream := func() (*Job, string) {
		t.Helper()
		j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 8})
		if err != nil {
			t.Fatal(err)
		}
		var sent []byte
		st, err := j.Stream(context.Background(), func(pr sidr.PartialResult) error {
			p := wire.FromPartial(pr)
			line, err := json.Marshal(&p)
			sent = append(append(sent, line...), '\n')
			return err
		})
		if err != nil || st != Done {
			t.Fatalf("stream: state %v, err %v, job err %v", st, err, j.Err())
		}
		return j, string(sent)
	}
	leader, sent := stream()
	hit, replayed := stream()
	if leader.Snapshot().ResultHit || !hit.Snapshot().ResultHit {
		t.Fatal("want an executed leader followed by a result-cache hit")
	}
	if replayed != sent {
		t.Fatalf("the hit's stream differs from its leader's:\n%s\nvs\n%s", replayed, sent)
	}
	if n := len(leader.partials); n != 8 || &leader.Result().Partials[0] != &leader.partials[0] || &hit.partials[0] != &leader.partials[0] {
		t.Fatalf("%d partials; the leader's result and the hit's log must share the leader's log, not copy it", n)
	}
}

// TestVersionBumpMissesTheResultCache: new dataset contents are a new
// version, so the next run misses and re-executes, its result differs
// from the old contents', and a repeat against the new version hits
// byte for byte.
func TestVersionBumpMissesTheResultCache(t *testing.T) {
	reg := metrics.New()
	p := newVersionedProvider([]int64{32, 32})
	m := newTestManager(t, Config{Datasets: p, Metrics: reg})

	run := func() *Job {
		t.Helper()
		j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("state = %v", st)
		}
		return j
	}

	first := run()
	p.bump("d") // new version, new contents

	second := run()
	if second.Snapshot().ResultHit {
		t.Fatal("run against the new version served from cache")
	}
	if got, old := wireBytes(t, second.Result()), wireBytes(t, first.Result()); got == old {
		t.Fatal("the new version produced the old contents' result")
	}
	if got := reg.Counter("sidrd_jobs_done_total").Value(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}

	// A repeat against the new version is a fresh cache hit,
	// byte-identical to the fresh execution.
	third := run()
	if !third.Snapshot().ResultHit {
		t.Fatal("repeat against new version missed the cache")
	}
	if got, want := wireBytes(t, third.Result()), wireBytes(t, second.Result()); got != want {
		t.Fatal("cached bytes differ from the fresh execution's")
	}
}

func TestCollapseConcurrentIdenticalQueries(t *testing.T) {
	const n = 8
	reg := metrics.New()
	p := newVersionedProvider([]int64{32, 32})
	p.gate = make(chan struct{})
	m := newTestManager(t, Config{Datasets: p, Metrics: reg, MaxConcurrent: 4})

	jobsOut := make([]*Job, n)
	var wg sync.WaitGroup
	var submitMu sync.Mutex
	var submitErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
			if err != nil {
				submitMu.Lock()
				submitErr = err
				submitMu.Unlock()
				return
			}
			jobsOut[i] = j
		}(i)
	}
	wg.Wait()
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	close(p.gate) // release the one real execution

	leaderBytes, leaderPartials := "", -1
	for i, j := range jobsOut {
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("job %d state = %v", i, st)
		}
		// Every subscriber sees the complete partial sequence and the same
		// wire bytes, whether it led, followed, or hit the cache.
		b := wireBytes(t, j.Result())
		np := j.Snapshot().Partials
		if leaderPartials == -1 {
			leaderBytes, leaderPartials = b, np
			continue
		}
		if b != leaderBytes {
			t.Fatalf("job %d wire bytes differ from leader's", i)
		}
		if np != leaderPartials {
			t.Fatalf("job %d saw %d partials, leader saw %d", i, np, leaderPartials)
		}
	}
	if leaderPartials == 0 {
		t.Fatal("no partials streamed at all")
	}
	if got := reg.Counter("sidrd_jobs_done_total").Value(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d identical submissions", got, n)
	}
	if got := reg.Counter("sidrd_jobs_submitted_total").Value(); got != n {
		t.Fatalf("submissions = %d, want %d", got, n)
	}
	// Everyone after the leader either collapsed onto it or (having
	// arrived after it finished) hit the result cache.
	collapsed := reg.Counter("sidrd_collapse_followers_total").Value()
	hits := reg.Counter("sidrd_resultcache_hits_total").Value()
	if collapsed+hits != n-1 {
		t.Fatalf("collapsed %d + cache hits %d != %d", collapsed, hits, n-1)
	}
}

func TestCollapsedFollowerCancelLeavesLeaderRunning(t *testing.T) {
	reg := metrics.New()
	p := newVersionedProvider([]int64{32, 32})
	p.gate = make(chan struct{})
	m := newTestManager(t, Config{Datasets: p, Metrics: reg})

	leader, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the leader actually runs so the next submit collapses.
	running, queued := reg.Gauge("sidrd_jobs_running"), reg.Gauge("sidrd_jobs_queued")
	deadline := time.Now().Add(5 * time.Second)
	for (leader.State() != Running || running.Value() != 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	follower, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := follower.Snapshot().CollapsedInto; got != leader.ID {
		t.Fatalf("follower collapsed into %q, want %q", got, leader.ID)
	}
	// A follower takes neither a queue slot nor a worker.
	if running.Value() != 1 || queued.Value() != 0 {
		t.Fatalf("with a leader and its follower: %d running, %d queued; want 1 and 0", running.Value(), queued.Value())
	}

	follower.Cancel()
	if st, _ := follower.Wait(context.Background()); st != Cancelled {
		t.Fatalf("cancelled follower state = %v", st)
	}
	if st := leader.State(); st.Terminal() {
		t.Fatalf("cancelling a follower terminalised the leader (state %v)", st)
	}

	close(p.gate)
	if st, _ := leader.Wait(context.Background()); st != Done {
		t.Fatalf("leader state = %v, want Done despite follower cancel", st)
	}
	if leader.Result() == nil {
		t.Fatal("leader lost its result")
	}
}

func TestTenantQuotaRejects(t *testing.T) {
	reg := metrics.New()
	p := newVersionedProvider([]int64{32, 32})
	p.gate = make(chan struct{})
	m := newTestManager(t, Config{
		Datasets: p,
		Metrics:  reg,
		Tenants:  map[string]TenantPolicy{"acme": {MaxInFlight: 1, Weight: 2}},
	})

	j1, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	// A different query (no collapse) from the same tenant breaches the
	// quota of 1.
	_, err = m.Submit(Request{Dataset: "d", Query: "sum v[0,0 : 32,32] es {4,4}", Reducers: 4, Tenant: "acme"})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit err = %v, want ErrTenantQuota", err)
	}
	if got := reg.Counter("sidrd_tenant_rejected_total").Value(); got != 1 {
		t.Fatalf("tenant rejections = %d, want 1", got)
	}
	// Other tenants are unaffected (default policy: unlimited).
	if _, err := m.Submit(Request{Dataset: "d", Query: "sum v[0,0 : 32,32] es {4,4}", Reducers: 4}); err != nil {
		t.Fatalf("default-tenant submit rejected: %v", err)
	}

	close(p.gate)
	if st, _ := j1.Wait(context.Background()); st != Done {
		t.Fatalf("state = %v", st)
	}
	// The slot frees on completion; the tenant can submit again.
	if !m.WaitIdle(5 * time.Second) {
		t.Fatal("manager never went idle")
	}
	if _, err := m.Submit(Request{Dataset: "d", Query: "sum v[0,0 : 32,32] es {4,4}", Reducers: 4, Tenant: "acme"}); err != nil {
		t.Fatalf("post-completion submit rejected: %v", err)
	}
}

// TestEncodedStreamIsChargedToTheBudget: the encoded stream an entry
// gains on its first streamed hit is counted in sidrd_resultcache_bytes
// against the one budget — evicting least recently used entries to make
// room — and leaves the account with the entry.
func TestEncodedStreamIsChargedToTheBudget(t *testing.T) {
	queries := []string{testQuery, "sum v[0,0 : 32,32] es {4,4}", "min v[0,0 : 32,32] es {4,4}"}
	run := func(m *Manager, q string) *Job {
		t.Helper()
		j, err := m.Submit(Request{Dataset: "d", Query: q, Reducers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("%q: state %v, err %v", q, st, j.Err())
		}
		return j
	}
	// What one of these results is charged before it is encoded.
	probe := metrics.New()
	run(newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32}), Metrics: probe}), testQuery)
	plain := probe.Gauge("sidrd_resultcache_bytes").Value()

	reg := metrics.New()
	budget := 3*plain + plain/4 // three plain entries fit; an encoded stream more does not
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32}), Metrics: reg, ResultCacheBytes: budget})
	bytes, entries := reg.Gauge("sidrd_resultcache_bytes"), reg.Gauge("sidrd_resultcache_entries")
	evictions := reg.Counter("sidrd_resultcache_evictions_total")
	for _, q := range queries {
		run(m, q)
	}
	if bytes.Value() != 3*plain || entries.Value() != 3 || evictions.Value() != 0 {
		t.Fatalf("three plain entries: %d bytes (want %d), %d entries, %d evictions", bytes.Value(), 3*plain, entries.Value(), evictions.Value())
	}

	hit := run(m, queries[1]) // recency: 1, 2, 0 — entry 0 is the coldest
	if !hit.Snapshot().ResultHit || bytes.Value() != 3*plain {
		t.Fatalf("a hit that has not streamed must cost nothing: hit %v, %d bytes", hit.Snapshot().ResultHit, bytes.Value())
	}
	events, err := hit.EncodedStream()
	if err != nil || len(events) != 5 {
		t.Fatalf("EncodedStream: %d events, err %v; want 4 partials and done", len(events), err)
	}
	var encoded int64
	for _, ev := range events {
		encoded += int64(len(ev.Tail) + len(ev.Deflated))
	}
	if encoded <= plain/4 {
		t.Fatalf("the encoded stream (%d bytes) fits beside three plain entries; the test's budget is wrong", encoded)
	}
	if got := bytes.Value(); got < 2*plain+encoded || got > budget || entries.Value() != 2 || evictions.Value() != 1 {
		t.Fatalf("after encoding: %d bytes (want ≥ %d, ≤ budget %d), %d entries, %d evictions",
			got, 2*plain+encoded, budget, entries.Value(), evictions.Value())
	}
	if run(m, queries[0]).Snapshot().ResultHit {
		t.Fatal("the least recently used entry survived; the encoded bytes evicted something else")
	}
	if !run(m, queries[1]).Snapshot().ResultHit {
		t.Fatal("the encoded entry was evicted by its own encoding")
	}
	if got := bytes.Value(); got > budget {
		t.Fatalf("%d bytes cached over a budget of %d", got, budget)
	}

	// The encoded bytes leave the account with their entry: two fresh
	// results push out the plain entry, then the encoded one, and what
	// stays is two plain entries' worth.
	run(m, "max v[0,0 : 32,32] es {4,4}")
	run(m, "avg v[0,0 : 32,32] es {8,2}")
	if bytes.Value() != 2*plain || entries.Value() != 2 || evictions.Value() != 4 {
		t.Fatalf("after two fresh results: %d bytes (want %d), %d entries, %d evictions", bytes.Value(), 2*plain, entries.Value(), evictions.Value())
	}
	if run(m, queries[1]).Snapshot().ResultHit {
		t.Fatal("the encoded entry survived two fresh results")
	}
	// A hit born before the eviction still holds what it was served, and
	// encoding for an entry that is gone charges nobody.
	if again, err := hit.EncodedStream(); err != nil || &again[0] != &events[0] {
		t.Fatalf("the hit lost its stream to the eviction: %v", err)
	}
}

// TestConcurrentFirstHitsEncodeOnce: hits of one entry that open their
// streams at the same moment share one encoding.
func TestConcurrentFirstHitsEncodeOnce(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Config{Datasets: newVersionedProvider([]int64{32, 32}), Metrics: reg})
	var hits []*Job
	for i := 0; i < 9; i++ {
		j, err := m.Submit(Request{Dataset: "d", Query: testQuery, Reducers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := j.Wait(context.Background()); st != Done {
			t.Fatalf("state %v, err %v", st, j.Err())
		}
		if i > 0 {
			hits = append(hits, j)
		} else if events, err := j.EncodedStream(); events != nil || err != nil {
			t.Fatalf("the executing job has an encoded stream: %d events, %v", len(events), err)
		}
	}
	streams := make([][]wire.EncodedEvent, len(hits))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, j := range hits {
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			<-start
			var err error
			if streams[i], err = j.EncodedStream(); err != nil {
				t.Error(err)
			}
		}(i, j)
	}
	close(start)
	wg.Wait()
	if got := reg.Counter("sidrd_resultcache_encodes_total").Value(); got != 1 {
		t.Fatalf("%d hits encoded the entry %d times, want once", len(hits), got)
	}
	for i, s := range streams {
		if len(s) != 5 || &s[0] != &streams[0][0] {
			t.Fatalf("hit %d was handed its own encoding (%d events)", i, len(s))
		}
	}
}
