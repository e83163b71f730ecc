// Package pipeline implements the paper's second future-work item (§6):
// "integrating SIDR's ability to produce early, orderable, correct
// results for portions of the total output into pipe-lined
// computations."
//
// A pipeline chains structural queries: stage n+1's input keyspace is
// stage n's output keyspace K'^T. Because SIDR's partial results are
// correct — not estimates — a downstream Map task may start as soon as
// the upstream keyblocks covering its input split have committed,
// overlapping the stages instead of running them back to back. The
// gating reuses the same geometry machinery as SIDR's own barrier: an
// upstream keyblock feeds a downstream split iff their regions overlap.
package pipeline

import (
	"fmt"
	"sync"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
)

// Stage is one structural query in a pipeline. The first stage reads the
// source dataset; each later stage reads the previous stage's output
// array. Aggregate operators contribute their single value per key;
// multi-valued outputs (sort, filters) contribute their first value and
// absent keys read as zero, so pipelines normally chain aggregates.
type Stage struct {
	Query    *query.Query
	Reducers int
	// MaxSkew bounds partition+ skew for this stage (0 = default).
	MaxSkew int64
}

// Result is a completed pipeline.
type Result struct {
	// Final is the last stage's result.
	Final *mapreduce.Result
	// StageResults holds every stage's result in order.
	StageResults []*mapreduce.Result
	// OverlappedStarts counts downstream Map-task reads served before
	// their upstream stage had fully completed — the pipelining win. A
	// stage's splits are small, so that is one read per Map task.
	OverlappedStarts int
}

// stageBuffer accumulates one stage's output as a virtual array and
// gates downstream reads on upstream keyblock commits.
type stageBuffer struct {
	space coords.Slab // the stage's output keyspace K'^T

	mu        sync.Mutex
	cond      *sync.Cond
	values    map[int64]float64 // linearised K' offset -> value
	committed []coords.Slab     // committed keyblock regions
	allDone   bool
	err       error
}

func newStageBuffer(space coords.Slab) *stageBuffer {
	b := &stageBuffer{space: space, values: make(map[int64]float64)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// commit publishes one upstream keyblock's output.
func (b *stageBuffer) commit(region coords.Slab, out mapreduce.ReduceOutput) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, k := range out.Keys {
		off, err := b.space.Linearize(k)
		if err != nil {
			return err
		}
		if len(out.Values[i]) > 0 {
			b.values[off] = out.Values[i][0]
		}
	}
	b.committed = append(b.committed, region)
	b.cond.Broadcast()
	return nil
}

// finish marks the upstream stage complete (or failed).
func (b *stageBuffer) finish(err error) {
	b.mu.Lock()
	b.allDone = true
	if err != nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// covered reports whether the slab lies entirely within committed
// regions. Caller holds b.mu. Regions are contiguous keyblocks, so a
// per-point containment check against the union suffices and slabs are
// small (one split's tile range).
func (b *stageBuffer) covered(slab coords.Slab) bool {
	ok := true
	slab.Each(func(k coords.Coord) bool {
		for _, r := range b.committed {
			if r.Contains(k) {
				return true
			}
		}
		ok = false
		return false
	})
	return ok
}

// waitFor blocks until the slab's data is available; returns false if
// the upstream stage finished without covering it (it then reads as
// written, with absent keys zero).
func (b *stageBuffer) waitFor(slab coords.Slab) (early bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.err != nil {
			return false, b.err
		}
		if b.covered(slab) {
			return !b.allDone, nil
		}
		if b.allDone {
			return false, nil
		}
		b.cond.Wait()
	}
}

// bufferReader adapts a stageBuffer to the engine's record reader,
// blocking each read until its region has committed upstream.
type bufferReader struct {
	buf     *stageBuffer
	overlap *int
	mu      *sync.Mutex
}

// ReadSlabInto implements coords.RecordReader; absent keys read as zero.
func (r *bufferReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	early, err := r.buf.waitFor(slab)
	if err != nil {
		return nil, err
	}
	if early {
		r.mu.Lock()
		*r.overlap++
		r.mu.Unlock()
	}
	dst = dst[:0]
	r.buf.mu.Lock()
	defer r.buf.mu.Unlock()
	slab.EachReuse(func(k coords.Coord) bool {
		var off int64
		if off, err = r.buf.space.Linearize(k); err != nil {
			return false
		}
		dst = append(dst, r.buf.values[off])
		return true
	})
	return dst, err
}

// Options tunes pipeline execution.
type Options struct {
	// OnEvent, when set, receives every engine event of every stage with
	// its stage index — observability into the cross-stage overlap.
	OnEvent func(stage int, e mapreduce.Event)
}

// Run executes the pipeline over the source reader. Every stage runs
// with SIDR semantics; stages overlap whenever dependencies allow.
func Run(source coords.RecordReader, stages []Stage) (*Result, error) {
	return RunWithOptions(source, stages, Options{})
}

// RunWithOptions is Run with execution options.
func RunWithOptions(source coords.RecordReader, stages []Stage, opts Options) (*Result, error) {
	if source == nil {
		return nil, fmt.Errorf("pipeline: nil source reader")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	// Validate stage chaining: stage n+1's input must equal stage n's
	// output keyspace.
	plans := make([]*core.Plan, len(stages))
	var prevSpace coords.Slab
	for i, st := range stages {
		if st.Query == nil {
			return nil, fmt.Errorf("pipeline: stage %d has no query", i)
		}
		if st.Reducers <= 0 {
			return nil, fmt.Errorf("pipeline: stage %d needs reducers", i)
		}
		if i > 0 {
			want := coords.Slab{Corner: make(coords.Coord, prevSpace.Rank()), Shape: prevSpace.Shape}
			if !st.Query.Input.Equal(want) && !prevSpace.ContainsSlab(st.Query.Input) {
				return nil, fmt.Errorf("pipeline: stage %d input %v does not chain from stage %d output space %v",
					i, st.Query.Input, i-1, prevSpace)
			}
		}
		_, splitPoints := core.RequestDefaults(st.Query, st.Reducers, 0)
		plan, err := core.NewPlan(st.Query, core.EngineSIDR, core.Options{
			Reducers:    st.Reducers,
			SplitPoints: splitPoints,
			MaxSkew:     st.MaxSkew,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
		plans[i] = plan
		prevSpace, err = st.Query.IntermediateSpace()
		if err != nil {
			return nil, err
		}
	}

	res := &Result{StageResults: make([]*mapreduce.Result, len(stages))}
	var overlapMu sync.Mutex

	// Launch all stages concurrently; stage n+1 blocks per split until
	// its upstream keyblocks commit.
	readers := make([]coords.RecordReader, len(stages))
	buffers := make([]*stageBuffer, len(stages))
	readers[0] = source
	for i := 1; i < len(stages); i++ {
		space, err := stages[i-1].Query.IntermediateSpace()
		if err != nil {
			return nil, err
		}
		buffers[i] = newStageBuffer(space)
		readers[i] = &bufferReader{buf: buffers[i], overlap: &res.OverlappedStarts, mu: &overlapMu}
	}

	errs := make([]error, len(stages))
	var wg sync.WaitGroup
	for i := range stages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan := plans[i]
			downstream := i+1 < len(stages)
			mrRes, err := plan.RunLocal(readers[i], func(cfg *mapreduce.Config) {
				if opts.OnEvent != nil {
					cfg.OnEvent = func(e mapreduce.Event) { opts.OnEvent(i, e) }
				}
				if !downstream {
					return
				}
				cfg.OnReduceOutput = func(out mapreduce.ReduceOutput) {
					region, ok := plan.KeyblockSlab(out.Keyblock)
					if !ok {
						// Non-rectangular or empty keyblock: synthesise a
						// covering region from the keys themselves.
						if len(out.Keys) == 0 {
							return
						}
						region = boundingSlab(out.Keys)
					}
					if err := buffers[i+1].commit(region, out); err != nil {
						buffers[i+1].finish(err)
					}
				}
			})
			errs[i] = err
			res.StageResults[i] = mrRes
			if downstream {
				buffers[i+1].finish(err)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
	}
	res.Final = res.StageResults[len(stages)-1]
	return res, nil
}

// boundingSlab returns the minimal slab covering the keys.
func boundingSlab(keys []coords.Coord) coords.Slab {
	lo := keys[0].Clone()
	hi := keys[0].Clone()
	for _, k := range keys[1:] {
		for d := range k {
			if k[d] < lo[d] {
				lo[d] = k[d]
			}
			if k[d] > hi[d] {
				hi[d] = k[d]
			}
		}
	}
	shape := make(coords.Shape, len(lo))
	for d := range shape {
		shape[d] = hi[d] - lo[d] + 1
	}
	return coords.Slab{Corner: lo, Shape: shape}
}
