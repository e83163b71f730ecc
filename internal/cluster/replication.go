// Elastic membership: the drain state machine and the spill-replica
// pipeline.
//
// Drain moves a worker through draining → drained instead of letting it
// simply vanish: the worker stops receiving dispatches immediately, its
// in-flight attempts finish, and its hosted spills stay fetchable until
// every dependent reduce has taken them or a verified replica exists on
// another worker. Only then is it released — eviction without the death
// penalty, so the worker's health score never learns to fear orderly
// exits.
//
// Replication makes that cheap: after a Map attempt commits its pack,
// the coordinator asks another healthy worker to pull the whole pack
// (one file per attempt, CRC-verified through the kv block checksums at
// install time) so a later death or drain of the primary costs a
// replica re-fetch, not a split re-execution.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// replicaLoc names one worker holding a verified copy of an attempt's
// pack.
type replicaLoc struct {
	worker string
	url    string
}

// drainPoll is how often a drain watcher re-checks hand-off progress.
const drainPoll = 30 * time.Millisecond

// Drain moves a worker into the draining state and starts the watcher
// that completes the hand-off. Idempotent: draining or already-drained
// workers return nil without a second watcher; unknown or dead workers
// are an error.
func (c *Coordinator) drain(name string) error {
	c.mu.Lock()
	w := c.workers[name]
	if w == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown worker %q", name)
	}
	if w.drained || (w.draining && !w.evicted) {
		c.mu.Unlock()
		return nil
	}
	if w.evicted {
		c.mu.Unlock()
		return fmt.Errorf("cluster: worker %q is not alive", name)
	}
	w.draining = true
	c.drainGaugeLocked()
	c.mu.Unlock()
	c.logf("worker %q draining", name)
	c.releases.Add(1)
	go func() {
		defer c.releases.Done()
		c.drainWatcher(name)
	}()
	return nil
}

// drainWatcher polls until the draining worker has nothing left to
// hand off — no running dispatches and no hosted attempt a reduce
// could still need without a live replica — then releases it. Each
// pass also schedules replica pushes for hosted attempts that lack
// one, so a drain converges even when the normal post-Map push found
// no target (e.g. the replacement worker registered later).
func (c *Coordinator) drainWatcher(name string) {
	t := time.NewTicker(drainPoll)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		w := c.workers[name]
		if w == nil || w.evicted || !w.draining {
			// Died (or re-registered afresh) mid-drain; the ordinary
			// death machinery owns recovery now.
			c.drainGaugeLocked()
			c.mu.Unlock()
			return
		}
		busy := w.running > 0
		jobs := make([]*clusterJob, 0, len(c.active))
		for _, j := range c.active {
			jobs = append(jobs, j)
		}
		c.mu.Unlock()

		for _, j := range jobs {
			if !j.handedOff(name) {
				busy = true
			}
		}
		if busy {
			continue
		}

		c.mu.Lock()
		w = c.workers[name]
		if w == nil || w.evicted || !w.draining {
			c.drainGaugeLocked()
			c.mu.Unlock()
			return
		}
		w.evicted = true
		w.drained = true
		c.pruneLocked(time.Now())
		c.mu.Unlock()
		c.logf("worker %q drained and released", name)
		return
	}
}

// handedOff reports whether the job no longer needs worker name: every
// attempt it hosts either has a live replica or feeds only committed
// keyblocks. Hosted attempts still lacking a replica get pushes
// scheduled as a side effect.
func (j *clusterJob) handedOff(name string) bool {
	j.mu.Lock()
	ok := true
	var wants []int
	for i := range j.maps {
		m := &j.maps[i]
		if m.out == nil || m.out.cands[0].worker != name || len(m.out.cands) > 1 || !j.loop.Needed(i) {
			continue
		}
		ok = false
		if !m.replInFlight {
			wants = append(wants, i)
		}
	}
	j.mu.Unlock()
	for _, i := range wants {
		j.scheduleReplicas(i)
	}
	return ok
}

// scheduleReplicas launches an async replica push for map task i's
// winning attempt if replication is enabled and the attempt has fewer
// verified replicas than configured.
func (j *clusterJob) scheduleReplicas(i int) {
	c := j.c
	if c.cfg.SpillReplicas <= 0 {
		return
	}
	j.mu.Lock()
	m := &j.maps[i]
	if j.ctx.Err() != nil || m.out == nil || m.replInFlight || len(m.out.cands) > c.cfg.SpillReplicas {
		j.mu.Unlock()
		return
	}
	m.replInFlight = true
	out := m.out
	exclude := make(map[string]bool)
	for _, r := range out.cands {
		exclude[r.worker] = true
	}
	srcURL := out.cands[0].url
	j.mu.Unlock()
	j.replWG.Add(1)
	c.releases.Add(1)
	go func() {
		defer c.releases.Done()
		defer j.replWG.Done()
		j.pushReplica(i, out, srcURL, exclude)
	}()
}

// pushReplica asks up to three candidate workers, in turn, to pull and
// install one attempt's pack. Push failures are logged but never feed
// health scores or lose anything: replication is a background bet, and
// the fetch policy (fetchDep) remains the sole error authority. A push
// is not started once the job has resolved, but one already on the wire
// is seen through (pushCtx, not the job's): the target may install the
// pack however the request ends for the sender, so the sender waits for
// the answer, and Run for the sender, before the job's release
// broadcast goes out.
func (j *clusterJob) pushReplica(i int, out *hosted, srcURL string, exclude map[string]bool) {
	c := j.c
	defer func() {
		j.mu.Lock()
		j.maps[i].replInFlight = false
		j.mu.Unlock()
	}()
	for try := 0; try < 3; try++ {
		if j.ctx.Err() != nil {
			return
		}
		name, url := c.pickReplicaTarget(exclude)
		if name == "" {
			return // nowhere to put it; a drain watcher may retry later
		}
		n, err := c.postReplicate(j.pushCtx, url, replicateRequest{
			JobID: j.spec.ID, Split: i, Attempt: out.attempt, SourceURL: srcURL,
		})
		if err != nil {
			c.logf("replica push %s/%d attempt %d -> %q failed: %v", j.spec.ID, i, out.attempt, name, err)
			exclude[name] = true
			continue
		}
		j.mu.Lock()
		current := j.ctx.Err() == nil && j.maps[i].out == out
		if current {
			out.cands = append(out.cands, replicaLoc{worker: name, url: url})
			j.counters.ReplicaPushes++
			j.counters.ReplicaBytes += n
		}
		j.mu.Unlock()
		if !current {
			// The attempt was superseded, or the job resolved, while the
			// push ran; the copy is garbage — reclaim it.
			c.releaseAttempt(url, j.spec.ID, i, out.attempt)
			return
		}
		c.mReplicaPushes.Inc()
		c.mReplicaBytes.Add(n)
		c.logf("replicated %s/%d attempt %d to %q (%d bytes)", j.spec.ID, i, out.attempt, name, n)
		return
	}
}

// pickReplicaTarget chooses a worker to host a replica: live, not
// draining, not quarantined, not already holding (or producing) the
// pack; least running tasks, then name. Unlike pickWorker it does not
// reserve a running slot — replica installs are background traffic.
func (c *Coordinator) pickReplicaTarget(exclude map[string]bool) (name, url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked(time.Now())
	var best *workerState
	for _, w := range c.workers {
		if w.evicted || w.draining || w.quarantined || exclude[w.name] {
			continue
		}
		if best == nil || w.running < best.running || (w.running == best.running && w.name < best.name) {
			best = w
		}
	}
	if best == nil {
		return "", ""
	}
	return best.name, best.url
}

// postReplicate performs one /v1/replicate request against the target
// worker, returning the installed pack's byte size.
func (c *Coordinator) postReplicate(ctx context.Context, baseURL string, rr replicateRequest) (int64, error) {
	body, err := json.Marshal(rr)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/replicate", strings.NewReader(string(body)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replicate returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var rresp replicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&rresp); err != nil {
		return 0, err
	}
	return rresp.Bytes, nil
}

// liveWorker reports whether a worker is registered, not evicted and
// within its heartbeat deadline. Draining counts as live: a draining
// worker still serves its spills.
func (c *Coordinator) liveWorker(name string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[name]
	return w != nil && !w.evicted && now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout
}
