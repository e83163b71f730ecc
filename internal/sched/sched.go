// Package sched implements the two task-scheduling policies the paper
// compares (§3.3):
//
//   - Hadoop: Map tasks are eligible immediately and dispensed through a
//     locality tree (node-local first, then any); Reduce tasks are
//     scheduled in monotonically increasing ID order, independent of the
//     Map tasks they depend on, so dependencies are met probabilistically.
//   - SIDR: Reduce tasks are scheduled FIRST (in keyblock order, or a
//     caller-supplied priority order for computational steering); a Map
//     task only becomes eligible once at least one scheduled Reduce task
//     depends on it. Marking dependents costs two pointer dereferences
//     per dependency, as the paper notes.
//
// The schedulers are pure state machines, which keeps the policy logic
// testable in isolation. Only the cluster simulator (internal/simcluster)
// drives them: the job loop every real job runs through
// (internal/mapreduce) realises the same reduce-first policy from
// depgraph.Graph.MapOrder and its own dependency counters.
package sched

import (
	"fmt"

	"sidr/internal/depgraph"
)

// MapInfo describes one Map task's placement options.
type MapInfo struct {
	// Hosts lists nodes holding the split's data (locality hints).
	Hosts []string
}

// Scheduler dispenses tasks to free slots. Implementations are not safe
// for concurrent use; the discrete-event simulator is single-threaded.
type Scheduler interface {
	// NextMap returns the next Map task to run on host, favouring
	// node-local work, or -1 if no eligible Map task remains.
	NextMap(host string) int
	// NextReduce returns the next Reduce task to assign, or -1.
	NextReduce() int
	// PendingMaps reports how many Map tasks have not been dispensed.
	PendingMaps() int
	// PendingReduces reports how many Reduce tasks have not been
	// dispensed.
	PendingReduces() int
}

// localityTree indexes pending Map tasks by host — the paper's tree of
// locality levels collapsed to two levels (node-local, any), matching a
// single-rack cluster like the evaluation testbed.
type localityTree struct {
	byHost  map[string][]int
	pending map[int]bool
	order   []int // FIFO fallback order
}

func newLocalityTree(maps []MapInfo) *localityTree {
	t := &localityTree{
		byHost:  make(map[string][]int),
		pending: make(map[int]bool, len(maps)),
	}
	for i, m := range maps {
		t.pending[i] = true
		t.order = append(t.order, i)
		for _, h := range m.Hosts {
			t.byHost[h] = append(t.byHost[h], i)
		}
	}
	return t
}

// take removes and returns the first pending task on host satisfying ok,
// falling back to global FIFO order; -1 if none. Consumed entries are
// compacted out of the host list as a side effect, keeping repeated calls
// amortised linear.
func (t *localityTree) take(host string, ok func(int) bool) int {
	list := t.byHost[host]
	w := 0
	found := -1
	for _, id := range list {
		if !t.pending[id] {
			continue // consumed elsewhere; drop
		}
		if found < 0 && ok(id) {
			found = id // taken; drop from the local list
			continue
		}
		list[w] = id
		w++
	}
	t.byHost[host] = list[:w]
	if found >= 0 {
		delete(t.pending, found)
		return found
	}
	// Fallback: any eligible pending task, lowest id first.
	for _, id := range t.order {
		if !t.pending[id] {
			continue
		}
		if ok(id) {
			delete(t.pending, id)
			return id
		}
	}
	return -1
}

func (t *localityTree) remaining() int { return len(t.pending) }

// Hadoop is the stock policy: every Map task eligible from the start,
// Reduce tasks dispensed by ascending ID.
type Hadoop struct {
	tree       *localityTree
	nextReduce int
	reduces    int
}

// NewHadoop builds the stock scheduler for the given Map placements and
// Reduce task count.
func NewHadoop(maps []MapInfo, reduces int) *Hadoop {
	return &Hadoop{tree: newLocalityTree(maps), reduces: reduces}
}

// NextMap implements Scheduler.
func (h *Hadoop) NextMap(host string) int {
	return h.tree.take(host, func(int) bool { return true })
}

// NextReduce implements Scheduler.
func (h *Hadoop) NextReduce() int {
	if h.nextReduce >= h.reduces {
		return -1
	}
	id := h.nextReduce
	h.nextReduce++
	return id
}

// PendingMaps implements Scheduler.
func (h *Hadoop) PendingMaps() int { return h.tree.remaining() }

// PendingReduces implements Scheduler.
func (h *Hadoop) PendingReduces() int { return h.reduces - h.nextReduce }

// SIDR inverts scheduling: Reduce tasks are dispensed first (in priority
// order) and Map tasks become eligible only when a dispensed Reduce task
// depends on them (§3.3).
type SIDR struct {
	tree     *localityTree
	graph    *depgraph.Graph
	priority []int
	nextIdx  int
	eligible []bool
}

// NewSIDR builds the SIDR scheduler. priority optionally orders Reduce
// dispensing (computational-steering prioritisation, §3.4); nil means
// keyblock order. It errors if priority is not a permutation of the
// keyblocks.
func NewSIDR(maps []MapInfo, graph *depgraph.Graph, priority []int) (*SIDR, error) {
	if graph == nil {
		return nil, fmt.Errorf("sched: SIDR scheduler needs a dependency graph")
	}
	if len(maps) != graph.NumSplits() {
		return nil, fmt.Errorf("sched: %d map infos for %d splits", len(maps), graph.NumSplits())
	}
	r := graph.NumKeyblocks()
	if priority == nil {
		priority = make([]int, r)
		for i := range priority {
			priority[i] = i
		}
	} else {
		if len(priority) != r {
			return nil, fmt.Errorf("sched: priority has %d entries for %d keyblocks", len(priority), r)
		}
		seen := make([]bool, r)
		for _, p := range priority {
			if p < 0 || p >= r || seen[p] {
				return nil, fmt.Errorf("sched: priority is not a permutation (entry %d)", p)
			}
			seen[p] = true
		}
		priority = append([]int(nil), priority...)
	}
	return &SIDR{
		tree:     newLocalityTree(maps),
		graph:    graph,
		priority: priority,
		eligible: make([]bool, len(maps)),
	}, nil
}

// NextReduce implements Scheduler. Dispensing a Reduce task marks its
// dependency Map tasks eligible.
func (s *SIDR) NextReduce() int {
	if s.nextIdx >= len(s.priority) {
		return -1
	}
	id := s.priority[s.nextIdx]
	s.nextIdx++
	for _, m := range s.graph.KBToSplits[id] {
		s.eligible[m] = true
	}
	return id
}

// NextMap implements Scheduler: only eligible Map tasks are dispensed.
func (s *SIDR) NextMap(host string) int {
	return s.tree.take(host, func(id int) bool { return s.eligible[id] })
}

// PendingMaps implements Scheduler.
func (s *SIDR) PendingMaps() int { return s.tree.remaining() }

// PendingReduces implements Scheduler.
func (s *SIDR) PendingReduces() int { return len(s.priority) - s.nextIdx }
