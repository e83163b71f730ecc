// The shuffle's Reduce side: one fetch primitive and the failure policy
// above it.
//
// fetchOnce is the only code that talks to a worker's shuffle endpoint:
// one POST /v1/shuffle/batch naming N≥1 spills of one keyblock, every
// returned frame validated against the Map-time KeyblockMeta and decoded
// through the kv codec's block checksums. It classifies nothing and
// retries nothing.
//
// fetchDeps drives it for a reduce: I_ℓ is grouped by the worker each
// spill is fetched from and every group is tried once — the common case,
// one request per (reduce, worker) pair. Whatever is still missing goes
// through fetchDep, the policy: the same primitive as a batch of one,
// under retries with jittered backoff, replica failover, and the error
// taxonomy that decides between re-execution, worker death and job
// failure.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sidr/internal/kv"
)

// reduceDep is one entry of a reduce task's I_ℓ dependency set: the
// split whose spill is needed and the attempt that produced it.
type reduceDep struct {
	split   int
	attempt int
	// meta is the spill's Map-time record (size, pair count, kv-count
	// annotation); a fetched frame must match it exactly.
	meta KeyblockMeta
	// cands are the workers holding the attempt's pack: the one that
	// produced it, then its verified replicas — byte-identical copies, so
	// meta holds across all of them. ci indexes the candidate the dep is
	// (being) fetched from.
	cands []replicaLoc
	ci    int
	// pairs is the decoded spill, valid once got is set (by the request
	// that carried it succeeding as a whole).
	pairs []kv.Pair
	got   bool
}

// liveCandidate returns the index of the first live candidate at or
// after from, or -1.
func (c *Coordinator) liveCandidate(cands []replicaLoc, from int) int {
	for k := from; k < len(cands); k++ {
		if c.liveWorker(cands[k].worker) {
			return k
		}
	}
	return -1
}

// fetchDeps fetches keyblock l's I_ℓ spills into deps. It reports false
// when the reduce must not finalize: the job was cancelled or failed, or
// a spill was lost and its split re-armed (the reduce re-enqueues when
// the fresh attempt completes).
func (j *clusterJob) fetchDeps(l int, deps []reduceDep) bool {
	c := j.c
	// Group by the worker each dep is fetched from, in order of first
	// appearance. A dep starts at its first live candidate, so a primary
	// already known dead is routed around instead of spending the retry
	// budget on a closed socket; with no live candidate it starts at the
	// producer — a death is only discovered by the fetch that pays for it.
	var order []string
	groups := make(map[string][]*reduceDep)
	for i := range deps {
		d := &deps[i]
		d.ci = max(c.liveCandidate(d.cands, 0), 0)
		u := d.cands[d.ci].url
		if _, ok := groups[u]; !ok {
			order = append(order, u)
		}
		groups[u] = append(groups[u], d)
	}
	for _, u := range order {
		g := groups[u]
		err := j.fetchOnce(u, l, g)
		if j.ctx.Err() != nil {
			return false
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
		if !d.got && !j.fetchDep(l, d) {
			return false
		}
		from := d.cands[d.ci].worker
		c.noteOutcome(from, false)
		if producer := d.cands[0].worker; from != producer {
			c.mReplicaFallbks.Inc()
			j.mu.Lock()
			j.counters.ReplicaFetchFallbacks++
			j.mu.Unlock()
			c.logf("reduce %s: split %d attempt %d served by replica on %q (primary %q gone)",
				j.spec.ID, d.split, d.attempt, from, producer)
		}
	}
	return true
}

// fetchDep is the shuffle's failure policy, applied to one dependency
// as batches of one. Each candidate gets FetchRetries tries with
// jittered exponential backoff; a candidate that cannot serve the spill
// is penalised (health score; marked dead on connection-level evidence)
// and the next live replica is tried. When no candidate is left the
// attempt is lost and its split re-executes. Two errors are judged
// before failover because another copy of the same pack cannot cure
// them: a block checksum failure means the bytes at rest are poison —
// refetching cannot fix them either, so it ends the retries at once and
// the split re-executes while the worker stays alive — and an annotation
// that still disagrees with the Map-time record after every retry is the
// §3.2.1 gate refusing to finalize: the job fails. Reports whether the
// spill was fetched.
func (j *clusterJob) fetchDep(l int, d *reduceDep) bool {
	c := j.c
	lost := map[int]int{d.split: d.attempt}
	for {
		cand := d.cands[d.ci]
		var err error
		for try := 0; try < c.cfg.FetchRetries; try++ {
			if try > 0 && sleep(j.ctx, c.backoff(try-1)) != nil {
				return false
			}
			if err = j.fetchOnce(cand.url, l, []*reduceDep{d}); err == nil {
				return true
			}
			if j.ctx.Err() != nil {
				return false
			}
			if errors.Is(err, kv.ErrChecksum) {
				break
			}
		}
		switch {
		case errors.Is(err, ErrCountMismatch):
			j.fail(fmt.Errorf("keyblock %d: %w", l, err))
			return false
		case errors.Is(err, kv.ErrChecksum):
			c.mSpillsCorrupt.Inc()
			j.mu.Lock()
			j.counters.CorruptSpills++
			j.mu.Unlock()
			c.noteOutcome(cand.worker, true)
			c.logf("reduce %s/kb%d: spill for split %d attempt %d corrupt on %q: %v — re-executing",
				j.spec.ID, l, d.split, d.attempt, cand.worker, err)
			j.rearm(l, lost, true)
			return false
		}
		dead := isConnError(err)
		if dead {
			c.markDead(cand.worker)
		}
		c.noteOutcome(cand.worker, true)
		if next := c.liveCandidate(d.cands, d.ci+1); next >= 0 {
			c.logf("reduce %s/kb%d: split %d attempt %d unavailable on %q (%v); trying replica",
				j.spec.ID, l, d.split, d.attempt, cand.worker, err)
			d.ci = next
			continue
		}
		if dead {
			// The spill died with its worker; rearm promotes a replica or
			// re-executes every dependency hosted on a dead worker.
			c.logf("reduce %s/kb%d: spill for split %d lost on %q: %v", j.spec.ID, l, d.split, cand.worker, err)
			j.rearm(l, nil, false)
		} else {
			// The worker answers but cannot produce this spill (released
			// pack, persistent 5xx): the attempt is lost though the worker
			// lives.
			c.logf("reduce %s/kb%d: spill for split %d attempt %d unserved by %q: %v — re-executing",
				j.spec.ID, l, d.split, d.attempt, cand.worker, err)
			j.rearm(l, lost, false)
		}
		return false
	}
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
func (j *clusterJob) fetchOnce(baseURL string, l int, deps []*reduceDep) error {
	c := j.c
	breq := BatchFetchRequest{JobID: j.spec.ID, Keyblock: l, Spills: make([]SpillRef, len(deps))}
	for i, d := range deps {
		breq.Spills[i] = SpillRef{Split: d.split, Attempt: d.attempt}
	}
	body, err := json.Marshal(breq)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(j.ctx, http.MethodPost, baseURL+shuffleBatchPath, bytes.NewReader(body))
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
		var fh [frameHeaderLen]byte
		if _, err := io.ReadFull(cr, fh[:]); err != nil {
			return fmt.Errorf("frame header for split %d: %w", d.split, err)
		}
		split, attempt, kb, length, err := parseFrameHeader(fh[:])
		if err != nil {
			return err
		}
		if split != d.split || attempt != d.attempt || kb != l {
			return fmt.Errorf("frame names spill %d/%d kb %d, want %d/%d kb %d",
				split, attempt, kb, d.split, d.attempt, l)
		}
		if length != d.meta.Bytes {
			return fmt.Errorf("split %d frame length %d != recorded spill size %d", d.split, length, d.meta.Bytes)
		}
		// LimitReader contains the decoder's buffered reads within the
		// frame: over-reading would swallow the next frame's header.
		lr := io.LimitReader(cr, length)
		h, pairs, err := kv.ReadSpill(lr)
		if err != nil {
			return fmt.Errorf("split %d spill decode: %w", d.split, err)
		}
		if rest, _ := io.Copy(io.Discard, lr); rest != 0 {
			return fmt.Errorf("split %d frame has %d trailing bytes", d.split, rest)
		}
		if len(pairs) != d.meta.Pairs {
			return fmt.Errorf("split %d decoded %d pairs, Map recorded %d", d.split, len(pairs), d.meta.Pairs)
		}
		if h.SourceCount != d.meta.SourceCount {
			return fmt.Errorf("%w: split %d spill annotates %d source pairs, Map recorded %d",
				ErrCountMismatch, d.split, h.SourceCount, d.meta.SourceCount)
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
