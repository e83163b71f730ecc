// Elastic membership: the drain state machine.
//
// Drain moves a worker through draining → drained instead of letting it
// simply vanish: the worker stops receiving dispatches immediately, its
// in-flight attempts finish, and its hosted spills stay fetchable until
// every reduce that needs them has consumed them — no uncommitted
// keyblock depends on an attempt it hosts. Only then is it released —
// eviction without the death penalty, so the worker's health score never
// learns to fear orderly exits. Nothing is copied away first: a worker
// that dies instead costs the re-execution of exactly the splits an
// uncommitted keyblock still needs from it (§6).
package cluster

import (
	"fmt"
	"time"
)

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
// hand off — no running dispatches and no hosted attempt a reduce could
// still need — then releases it.
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

// handedOff reports whether the job no longer needs worker name: no
// attempt it hosts feeds a keyblock that has not committed.
func (j *clusterJob) handedOff(name string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.maps {
		if out := j.maps[i].out; out != nil && out.worker == name && j.loop.Needed(i) {
			return false
		}
	}
	return true
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
