// The shuffle's Reduce side: one fetch primitive and the failure policy
// above it.
//
// fetchOnce is the only code that talks to a worker's shuffle endpoint:
// one POST /v1/shuffle/batch naming N≥1 spills of one keyblock, every
// returned frame validated against the Map-time keyblockMeta and decoded
// through the kv codec's block checksums. It classifies nothing and
// retries nothing.
//
// fetchDeps drives it for a reduce: the spills are grouped by the worker
// each is fetched from and every group is tried once — the common case,
// one request per (reduce, worker) pair. Whatever is still missing goes
// through fetchDep, the policy: the same primitive as a batch of one,
// under retries with jittered backoff and the error taxonomy that ends
// in one of three verdicts — fetched, these splits' output is lost, or
// the job must fail. Every spill lives on the one worker that produced
// it; a lost one is recovered only by re-executing its split, and what a
// loss re-opens is the job loop's business (mapreduce.Job), not decided
// here.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sidr/internal/kv"
	"sidr/internal/mapreduce"
)

// fetchRetries is how many times a single-spill shuffle fetch is
// attempted against its hosting worker before the spill is declared
// lost.
const fetchRetries = 4

// reduceDep is one spill a reduce task needs: the hosted Map output it
// is part of and the keyblock's share of it.
type reduceDep struct {
	host *hosted
	// meta is the spill's Map-time record (size, pair count, kv-count
	// annotation); a fetched frame must match it exactly.
	meta keyblockMeta
	// pairs is the decoded spill, valid once got is set (by the request
	// that carried it succeeding as a whole).
	pairs []kv.Pair
	got   bool
}

// Fetch gathers keyblock l's Reduce input from the hosted Map outputs
// the job loop hands it: the decoded spills as sorted streams in
// ascending split order, the same order as the in-process engine
// (stream-index tie-breaks make the Reduce's fold order-sensitive), and
// the tally of their kv-count annotations — fetchOnce has checked each
// spill header's annotation against the Map-time record tallied here.
// Every call decodes afresh: the pairs are the asking Reduce's own.
func (j *clusterJob) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	deps := make([]reduceDep, 0, len(refs))
	for _, ref := range refs {
		h := ref.(*hosted)
		// A split that does not feed l wrote no spill for it (the global
		// barrier's all-to-all shuffle asks every split).
		if meta, ok := h.outputs[l]; ok {
			deps = append(deps, reduceDep{host: h, meta: meta})
		}
	}
	if lost, err := j.fetchDeps(ctx, l, deps); err != nil {
		return nil, 0, lost, err
	}
	streams := make([][]kv.Pair, len(deps))
	var tally int64
	for i := range deps {
		streams[i] = deps[i].pairs
		tally += deps[i].meta.SourceCount
	}
	return streams, tally, nil, nil
}

// fetchDeps fetches keyblock l's spills into deps. A non-nil error means
// the reduce cannot run on them: the job was cancelled, a spill failed
// the §3.2.1 annotation check for good, or — lost non-empty — those
// splits' output is gone.
func (j *clusterJob) fetchDeps(ctx context.Context, l int, deps []reduceDep) (lost []int, err error) {
	c := j.c
	// Group by the worker hosting each dep, in order of first appearance.
	// A death is only discovered by the fetch that pays for it.
	var order []string
	groups := make(map[string][]*reduceDep)
	for i := range deps {
		d := &deps[i]
		u := d.host.url
		if _, ok := groups[u]; !ok {
			order = append(order, u)
		}
		groups[u] = append(groups[u], d)
	}
	for _, u := range order {
		g := groups[u]
		err := j.fetchOnce(ctx, u, l, g)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil && len(g) > 1 {
			c.mBatchFallbacks.Inc()
			j.mu.Lock()
			j.counters.BatchFallbacks++
			j.mu.Unlock()
			c.logf("reduce %s/kb%d: batch fetch of %d spills from %s failed (%v); re-fetching singly",
				j.spec.ID, l, len(g), u, err)
		}
	}
	for i := range deps {
		d := &deps[i]
		if !d.got {
			if lost, err := j.fetchDep(ctx, l, d, deps); err != nil {
				return lost, err
			}
		}
		c.noteOutcome(d.host.worker, false)
	}
	return nil, nil
}

// fetchDep is the shuffle's failure policy, applied to one dependency
// as batches of one: fetchRetries tries with jittered exponential
// backoff against the worker hosting it. Then the verdict. An
// annotation that still disagrees with the Map-time record is the
// §3.2.1 gate refusing to finalize: the job fails. A block checksum
// failure means the bytes at rest are poison — refetching cannot fix
// them, so it ends the retries at once and the output is lost while the
// worker stays alive. A connection-level failure means the worker died,
// and every spill of this reduce that a dead worker held died with it:
// they are reported lost together. Any other failure (released pack,
// persistent 5xx) loses this attempt's output alone. A nil error means
// the spill was fetched.
func (j *clusterJob) fetchDep(ctx context.Context, l int, d *reduceDep, deps []reduceDep) (lost []int, err error) {
	c, h := j.c, d.host
	for try := 0; try < fetchRetries; try++ {
		if try > 0 {
			if err := sleep(ctx, c.backoff(try-1)); err != nil {
				return nil, err
			}
		}
		if err = j.fetchOnce(ctx, h.url, l, []*reduceDep{d}); err == nil {
			return nil, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, kv.ErrChecksum) {
			break
		}
	}
	switch {
	case errors.Is(err, mapreduce.ErrCountMismatch):
		return nil, fmt.Errorf("keyblock %d: %w", l, err)
	case errors.Is(err, kv.ErrChecksum):
		c.mSpillsCorrupt.Inc()
		j.mu.Lock()
		j.counters.CorruptSpills++
		j.mu.Unlock()
		c.noteOutcome(h.worker, true)
		c.logf("reduce %s/kb%d: spill for split %d attempt %d corrupt on %q: %v — re-executing",
			j.spec.ID, l, h.split, h.attempt, h.worker, err)
		return []int{h.split}, fmt.Errorf("%w: split %d attempt %d on %q: %v", ErrSpillCorrupt, h.split, h.attempt, h.worker, err)
	case isConnError(err):
		c.markDead(h.worker)
		c.noteOutcome(h.worker, true)
		c.logf("reduce %s/kb%d: spill for split %d lost on %q: %v", j.spec.ID, l, h.split, h.worker, err)
		return j.lostWithWorkers(deps, h.worker), fmt.Errorf("split %d attempt %d lost with %q: %v", h.split, h.attempt, h.worker, err)
	}
	c.noteOutcome(h.worker, true)
	c.logf("reduce %s/kb%d: spill for split %d attempt %d unserved by %q: %v — re-executing",
		j.spec.ID, l, h.split, h.attempt, h.worker, err)
	return []int{h.split}, fmt.Errorf("split %d attempt %d unserved by %q: %v", h.split, h.attempt, h.worker, err)
}

// lostWithWorkers lists the splits among a reduce's dependencies hosted
// by the worker that just died or by any other worker no longer live —
// fetched or not, the reduce cannot run until they are re-executed.
func (j *clusterJob) lostWithWorkers(deps []reduceDep, dead string) (lost []int) {
	for i := range deps {
		if h := deps[i].host; h.worker == dead || !j.c.liveWorker(h.worker) {
			lost = append(lost, h.split)
		}
	}
	return lost
}

// fetchOnce fetches deps — spills of keyblock l all held by the worker
// at baseURL — as one framed stream, and validates every frame against
// the Map-time spill metadata: frame identity and length, then (through
// the kv codec's block checksums) the decoded pair count and kv-count
// annotation. It is all-or-nothing: any mismatch fails the whole
// request and leaves every dep unfetched. A successful request is
// accounted once (histogram, ShuffleRequests) while Connections advances
// by the number of spills carried, so a completed job's connection count
// is exactly Σ|I_ℓ| however the spills were batched.
func (j *clusterJob) fetchOnce(ctx context.Context, baseURL string, l int, deps []*reduceDep) error {
	c := j.c
	breq := batchFetchRequest{JobID: j.spec.ID, Keyblock: l, Spills: make([]spillRef, len(deps))}
	for i, d := range deps {
		breq.Spills[i] = spillRef{Split: d.host.split, Attempt: d.host.attempt}
	}
	body, err := json.Marshal(breq)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+shuffleBatchPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.shuffleClient.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shuffle fetch returned %d", resp.StatusCode)
	}
	cr := &countingReader{r: resp.Body}
	for _, d := range deps {
		h := d.host
		var fh [frameHeaderLen]byte
		if _, err := io.ReadFull(cr, fh[:]); err != nil {
			return fmt.Errorf("frame header for split %d: %w", h.split, err)
		}
		split, attempt, kb, length, err := parseFrameHeader(fh[:])
		if err != nil {
			return err
		}
		if split != h.split || attempt != h.attempt || kb != l {
			return fmt.Errorf("frame names spill %d/%d kb %d, want %d/%d kb %d",
				split, attempt, kb, h.split, h.attempt, l)
		}
		if length != d.meta.Bytes {
			return fmt.Errorf("split %d frame length %d != recorded spill size %d", h.split, length, d.meta.Bytes)
		}
		// LimitReader contains the decoder's buffered reads within the
		// frame: over-reading would swallow the next frame's header.
		lr := io.LimitReader(cr, length)
		hdr, pairs, err := kv.ReadSpill(lr)
		if err != nil {
			return fmt.Errorf("split %d spill decode: %w", h.split, err)
		}
		if rest, _ := io.Copy(io.Discard, lr); rest != 0 {
			return fmt.Errorf("split %d frame has %d trailing bytes", h.split, rest)
		}
		if len(pairs) != d.meta.Pairs {
			return fmt.Errorf("split %d decoded %d pairs, Map recorded %d", h.split, len(pairs), d.meta.Pairs)
		}
		if hdr.SourceCount != d.meta.SourceCount {
			return fmt.Errorf("%w: split %d spill annotates %d source pairs, Map recorded %d",
				mapreduce.ErrCountMismatch, h.split, hdr.SourceCount, d.meta.SourceCount)
		}
		d.pairs = pairs
	}
	if extra, _ := io.Copy(io.Discard, cr); extra != 0 {
		return fmt.Errorf("%d trailing bytes after final frame", extra)
	}
	for _, d := range deps {
		d.got = true
	}
	c.mFetchSeconds.Observe(time.Since(start).Seconds())
	c.mShuffleReqs.Inc()
	c.mConnections.Add(int64(len(deps)))
	c.mShuffleBytes.Add(cr.n)
	j.mu.Lock()
	j.counters.ShuffleRequests++
	j.counters.Connections += int64(len(deps))
	j.counters.ShuffleBytes += cr.n
	j.mu.Unlock()
	return nil
}

// countingReader counts bytes for the shuffle-bytes accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
