// Package exec is the process-wide execution core: a bounded worker pool
// that runs tasks submitted through per-job handles. It realises SIDR's
// scheduling model (§3.3) in the runtime itself — readiness is decided by
// the submitter (the mapreduce task graph enqueues a Reduce task the
// moment its dependency counter hits zero), and the pool merely dispatches
// runnable tasks, so no task goroutine ever parks on a barrier.
//
// Dispatch policy:
//
//   - Across handles (jobs): weighted round-robin over handles that have
//     runnable work, so one job cannot starve its peers.
//   - Within a handle: tasks pop in (Class, Priority, submission) order.
//     Class Reduce sorts before Class Map — a Reduce task that becomes
//     ready is dispatched before queued Map work, SIDR's reduce-first
//     scheduling — and Priority carries MapOrder/ReduceOrder steering.
//   - A handle's MaxParallel caps how many of its tasks run at once,
//     preserving per-job concurrency bounds on a shared pool.
//
// One Executor is shared by every job in a daemon (internal/jobs sizes it
// with one knob), while library callers without an injected executor get
// a private pool per Run.
package exec

import (
	"container/heap"
	"sync"
)

// Class coarsely orders a handle's tasks: all pending Reduce tasks
// dispatch before any pending Map task.
type Class int

const (
	// Reduce tasks are dispatched first — under SIDR a ready Reduce task
	// is the scheduling priority (§3.3).
	Reduce Class = iota
	// Map tasks fill the remaining capacity.
	Map
)

// task is one unit of queued work.
type task struct {
	class    Class
	priority int
	seq      int64 // submission order breaks ties (FIFO)
	fn       func()
}

// taskHeap is a min-heap over (class, priority, seq).
type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1].fn = nil
	*h = old[:n-1]
	return t
}

// Stats is a point-in-time view of the pool.
type Stats struct {
	// Workers is the pool size.
	Workers int
	// Queued counts tasks submitted but not yet running.
	Queued int
	// Runnable counts queued tasks eligible for immediate dispatch (their
	// handle is below its MaxParallel cap). Queued − Runnable is work
	// throttled by per-job caps rather than by pool capacity.
	Runnable int
	// Running counts tasks currently executing.
	Running int
	// PeakRunning is the high-water mark of Running (bounded by Workers).
	PeakRunning int
	// Dispatched counts tasks ever started across all handles.
	Dispatched int64
}

// Executor is a bounded shared worker pool. Create with New.
type Executor struct {
	mu      sync.Mutex
	cond    *sync.Cond // workers wait here for runnable work
	handles []*Handle  // round-robin ring of live handles
	rr      int        // ring position of the next handle to serve
	closed  bool
	wg      sync.WaitGroup

	workers     int
	queued      int
	running     int
	peakRunning int
	dispatched  int64
}

// New starts a pool of the given size (minimum 1).
func New(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	e := &Executor{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Stats returns a snapshot of the pool.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Workers:     e.workers,
		Queued:      e.queued,
		Running:     e.running,
		PeakRunning: e.peakRunning,
		Dispatched:  e.dispatched,
	}
	for _, h := range e.handles {
		n := h.pending.Len()
		if h.opts.MaxParallel > 0 {
			if room := h.opts.MaxParallel - h.running; room < n {
				n = room
			}
		}
		if n > 0 {
			s.Runnable += n
		}
	}
	return s
}

// Close stops the pool: remaining runnable tasks are drained, then the
// workers exit. Submissions after Close are rejected. Close blocks until
// every worker has returned.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// HandleOptions tunes one handle's share of the pool.
type HandleOptions struct {
	// Weight is the handle's round-robin share: a handle with weight w may
	// dispatch up to w consecutive tasks before the scan advances to the
	// next handle (default 1).
	Weight int
	// MaxParallel caps the handle's concurrently running tasks; 0 means
	// bounded only by the pool.
	MaxParallel int
}

// Handle is one job's submission interface to the pool.
type Handle struct {
	ex   *Executor
	opts HandleOptions

	// All fields below are guarded by ex.mu.
	pending    taskHeap
	running    int
	credit     int // remaining consecutive dispatches before RR advances
	seq        int64
	closed     bool
	dispatched int64
}

// NewHandle registers a new handle on the pool.
func (e *Executor) NewHandle(opts HandleOptions) *Handle {
	if opts.Weight < 1 {
		opts.Weight = 1
	}
	h := &Handle{ex: e, opts: opts, credit: opts.Weight}
	e.mu.Lock()
	e.handles = append(e.handles, h)
	e.mu.Unlock()
	return h
}

// Submit enqueues fn; false means the handle or pool is closed and fn
// will never run.
func (h *Handle) Submit(class Class, priority int, fn func()) bool {
	e := h.ex
	e.mu.Lock()
	if h.closed || e.closed {
		e.mu.Unlock()
		return false
	}
	heap.Push(&h.pending, task{class: class, priority: priority, seq: h.seq, fn: fn})
	h.seq++
	e.queued++
	e.cond.Signal()
	e.mu.Unlock()
	return true
}

// Cancel drops every pending (not yet dispatched) task and returns how
// many were dropped. Tasks already running are unaffected. The handle
// stays usable.
func (h *Handle) Cancel() int {
	e := h.ex
	e.mu.Lock()
	n := h.pending.Len()
	h.pending = nil
	e.queued -= n
	e.mu.Unlock()
	return n
}

// Dispatched returns how many of the handle's tasks have been started.
func (h *Handle) Dispatched() int64 {
	e := h.ex
	e.mu.Lock()
	defer e.mu.Unlock()
	return h.dispatched
}

// Close drops the handle's pending tasks and detaches it from the pool;
// further Submits are rejected. Running tasks finish normally.
func (h *Handle) Close() {
	e := h.ex
	e.mu.Lock()
	if !h.closed {
		h.closed = true
		e.queued -= h.pending.Len()
		h.pending = nil
		for i, hh := range e.handles {
			if hh == h {
				e.handles = append(e.handles[:i], e.handles[i+1:]...)
				if e.rr > i {
					e.rr--
				}
				break
			}
		}
	}
	e.mu.Unlock()
}

// eligible reports whether the handle has a dispatchable task. Caller
// holds ex.mu.
func (h *Handle) eligible() bool {
	if h.pending.Len() == 0 {
		return false
	}
	return h.opts.MaxParallel <= 0 || h.running < h.opts.MaxParallel
}

// pick chooses the next (handle, task) under weighted round-robin.
// Caller holds ex.mu; ok is false when nothing is runnable.
func (e *Executor) pick() (*Handle, task, bool) {
	n := len(e.handles)
	for k := 0; k < n; k++ {
		i := (e.rr + k) % n
		h := e.handles[i]
		if !h.eligible() {
			continue
		}
		t := heap.Pop(&h.pending).(task)
		h.credit--
		if h.credit <= 0 || !h.eligible() {
			h.credit = h.opts.Weight
			e.rr = (i + 1) % n
		} else {
			e.rr = i
		}
		return h, t, true
	}
	return nil, task{}, false
}

// worker is the run loop of one pool goroutine.
func (e *Executor) worker() {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		h, t, ok := e.pick()
		if !ok {
			if e.closed {
				e.mu.Unlock()
				return
			}
			e.cond.Wait()
			continue
		}
		e.queued--
		e.running++
		if e.running > e.peakRunning {
			e.peakRunning = e.running
		}
		e.dispatched++
		h.running++
		h.dispatched++
		e.mu.Unlock()

		t.fn()

		e.mu.Lock()
		e.running--
		h.running--
		// Finishing may free a MaxParallel slot, making previously capped
		// work runnable for the waiting workers.
		e.cond.Broadcast()
	}
}
