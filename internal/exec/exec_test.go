package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drain waits until the pool is idle.
func drain(t *testing.T, e *Executor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Stats()
		if s.Queued == 0 && s.Running == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool never drained: %+v", e.Stats())
}

func TestPoolBoundsConcurrency(t *testing.T) {
	// Satellite 3a: 4 concurrent jobs on a 4-worker pool never have more
	// than 4 tasks live at once.
	const workers, jobs, tasksPerJob = 4, 4, 32
	e := New(workers)
	defer e.Close()

	var live, peak atomic.Int64
	var wg sync.WaitGroup
	for jb := 0; jb < jobs; jb++ {
		h := e.NewHandle(HandleOptions{})
		defer h.Close()
		for i := 0; i < tasksPerJob; i++ {
			wg.Add(1)
			h.Submit(Map, i, func() {
				defer wg.Done()
				n := live.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				live.Add(-1)
			})
		}
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("live tasks peaked at %d, pool size %d", p, workers)
	}
	if s := e.Stats(); s.PeakRunning > workers {
		t.Fatalf("PeakRunning %d exceeds pool size %d", s.PeakRunning, workers)
	}
	if s := e.Stats(); s.Dispatched != jobs*tasksPerJob {
		t.Fatalf("dispatched %d tasks, want %d", s.Dispatched, jobs*tasksPerJob)
	}
}

func TestCancelRemovesPendingWithoutStarvingPeers(t *testing.T) {
	// Satellite 3b: cancelling one handle's queued tasks must not run
	// them, and the surviving handle's work still completes.
	e := New(1) // single worker serialises dispatch
	defer e.Close()

	gate := make(chan struct{})
	victim := e.NewHandle(HandleOptions{})
	defer victim.Close()
	peer := e.NewHandle(HandleOptions{})
	defer peer.Close()

	var victimRan, peerRan atomic.Int64
	blocking := make(chan struct{})
	victim.Submit(Map, 0, func() { close(blocking); <-gate }) // occupies the only worker
	<-blocking
	for i := 0; i < 16; i++ {
		victim.Submit(Map, i+1, func() { victimRan.Add(1) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		peer.Submit(Map, i, func() { defer wg.Done(); peerRan.Add(1) })
	}

	if n := victim.Cancel(); n != 16 {
		t.Fatalf("Cancel dropped %d tasks, want 16", n)
	}
	close(gate)
	wg.Wait()
	drain(t, e)
	if victimRan.Load() != 0 {
		t.Fatalf("%d cancelled tasks ran", victimRan.Load())
	}
	if peerRan.Load() != 8 {
		t.Fatalf("peer completed %d tasks, want 8", peerRan.Load())
	}
	if d := victim.Dispatched(); d != 1 {
		t.Fatalf("victim dispatched %d, want 1", d)
	}
}

func TestClassAndPriorityOrder(t *testing.T) {
	// With one worker, dispatch follows (class, priority, seq): every
	// Reduce precedes every Map, and priorities order within a class.
	e := New(1)
	defer e.Close()
	h := e.NewHandle(HandleOptions{})
	defer h.Close()

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	record := func(id int) func() {
		wg.Add(1)
		return func() { defer wg.Done(); mu.Lock(); order = append(order, id); mu.Unlock() }
	}
	// Hold the worker while we queue, and queue only once it is held: a
	// worker still idle would dispatch the first task queued at once.
	held := make(chan struct{})
	wg.Add(1)
	h.Submit(Map, -1, func() { defer wg.Done(); close(held); <-gate })
	<-held
	h.Submit(Map, 2, record(102))
	h.Submit(Map, 0, record(100))
	h.Submit(Reduce, 1, record(1))
	h.Submit(Map, 1, record(101))
	h.Submit(Reduce, 0, record(0))
	close(gate)
	wg.Wait()

	want := []int{0, 1, 100, 101, 102}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMaxParallelCapsHandle(t *testing.T) {
	// A MaxParallel=1 handle on a 4-worker pool never runs two tasks at
	// once, and the throttled tasks show up as Queued but not Runnable.
	e := New(4)
	defer e.Close()
	h := e.NewHandle(HandleOptions{MaxParallel: 1})
	defer h.Close()

	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var live, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		h.Submit(Map, i, func() {
			defer wg.Done()
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			started <- struct{}{}
			<-release
			live.Add(-1)
		})
	}
	<-started // one task is holding its slot; the rest must be throttled
	s := e.Stats()
	if s.Running != 1 {
		t.Fatalf("Running = %d, want 1", s.Running)
	}
	if s.Queued != 5 || s.Runnable != 0 {
		t.Fatalf("Queued = %d Runnable = %d, want 5 and 0", s.Queued, s.Runnable)
	}
	close(release)
	wg.Wait()
	drain(t, e)
	if p := peak.Load(); p != 1 {
		t.Fatalf("capped handle peaked at %d concurrent tasks", p)
	}
}

func TestWeightedFairness(t *testing.T) {
	// A weight-3 handle gets three consecutive dispatches per ring pass; a
	// single worker makes the interleave deterministic.
	e := New(1)
	defer e.Close()
	heavy := e.NewHandle(HandleOptions{Weight: 3})
	defer heavy.Close()
	light := e.NewHandle(HandleOptions{})
	defer light.Close()

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	record := func(tag string) func() {
		wg.Add(1)
		return func() { defer wg.Done(); mu.Lock(); order = append(order, tag); mu.Unlock() }
	}
	wg.Add(1)
	heavy.Submit(Map, -1, func() { defer wg.Done(); <-gate })
	for i := 0; i < 6; i++ {
		heavy.Submit(Map, i, record("H"))
	}
	for i := 0; i < 2; i++ {
		light.Submit(Map, i, record("L"))
	}
	close(gate)
	wg.Wait()

	got := ""
	for _, tag := range order {
		got += tag
	}
	// The blocker consumed one unit of heavy's credit, so the first pass
	// grants it two more before the ring advances.
	if got != "HHLHHHLH" {
		t.Fatalf("dispatch order %q, want HHLHHHLH", got)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	e := New(2)
	h := e.NewHandle(HandleOptions{})
	h.Close()
	if h.Submit(Map, 0, func() {}) {
		t.Fatal("Submit on closed handle succeeded")
	}
	e.Close()
	h2 := e.NewHandle(HandleOptions{})
	if h2.Submit(Map, 0, func() {}) {
		t.Fatal("Submit on closed executor succeeded")
	}
}
