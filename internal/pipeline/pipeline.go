// Package pipeline implements the paper's second future-work item (§6):
// "integrating SIDR's ability to produce early, orderable, correct
// results for portions of the total output into pipe-lined
// computations."
//
// A pipeline chains structural queries: stage n+1's input lies in stage
// n's output keyspace K'^T. Because SIDR's partial results are correct —
// not estimates — a downstream Map task may run as soon as the upstream
// keyblocks its input split reads have committed, overlapping the stages
// instead of running them back to back. Which keyblocks those are is
// I_ℓ one level up: the downstream split's keys put through the upstream
// partitioner, known before either stage runs. So every stage is a job
// on the one loop, the downstream job holds that relation as Map
// readiness counters (mapreduce.Config.Upstream), and each upstream
// commit decrements them (Job.UpstreamCommitted) — no Map task ever
// waits inside its reader.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/depgraph"
	"sidr/internal/exec"
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
}

// result is a completed pipeline.
type result struct {
	// Final is the last stage's result.
	Final *mapreduce.Result
	// StageResults holds every stage's result in order.
	StageResults []*mapreduce.Result
	// OverlappedStarts counts downstream Map tasks that started before
	// their upstream stage's last keyblock committed — the pipelining win.
	OverlappedStarts int
}

// Options tunes pipeline execution.
type Options struct {
	// OnEvent, when set, receives every engine event of every stage with
	// its stage index — observability into the cross-stage overlap.
	OnEvent func(stage int, e mapreduce.Event)
}

// Run executes the pipeline over the source reader. Every stage runs
// with SIDR semantics; stages overlap whenever dependencies allow.
func Run(source coords.RecordReader, stages []Stage, opts Options) (*result, error) {
	if source == nil {
		return nil, fmt.Errorf("pipeline: nil source reader")
	}
	plans, upstream, err := plan(stages)
	if err != nil {
		return nil, err
	}

	// Every stage is a job on one shared executor; a stage that fails
	// cancels the others through the shared context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := exec.New(runtime.GOMAXPROCS(0))
	defer ex.Close()

	// Stage i's output is a dense array over its K'^T: a commit writes its
	// keys' first values, then makes the downstream Maps reading that
	// keyblock one dependency closer to runnable. Stage i+1 reads the
	// array; chain validation keeps every read inside it.
	jobs := make([]*mapreduce.Job, len(plans))
	var reader coords.RecordReader = source
	for i, p := range plans {
		cfg := p.JobConfig(reader, nil)
		cfg.Ctx, cfg.Exec, cfg.Upstream = ctx, ex, upstream[i]
		if opts.OnEvent != nil {
			cfg.OnEvent = func(e mapreduce.Event) { opts.OnEvent(i, e) }
		}
		if i+1 < len(plans) {
			space, vals := p.Space, make([]float64, p.Space.Size())
			cfg.OnReduceOutput = func(out mapreduce.ReduceOutput) {
				for k, key := range out.Keys {
					if off, err := space.Linearize(key); err == nil && len(out.Values[k]) > 0 {
						vals[off] = out.Values[k][0]
					}
				}
				jobs[i+1].UpstreamCommitted(out.Keyblock)
			}
			reader = &mapreduce.FuncReader{Fn: func(k coords.Coord) float64 {
				off, _ := space.Linearize(k)
				return vals[off]
			}}
		}
		if jobs[i], err = mapreduce.NewJob(cfg); err != nil {
			return nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
	}

	res := &result{StageResults: make([]*mapreduce.Result, len(jobs))}
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		failed   error
	)
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := j.Run()
			if err != nil {
				// The first failure is the cause; the others are its cancel.
				failOnce.Do(func() { failed = fmt.Errorf("pipeline: stage %d: %w", i, err) })
				cancel()
				return
			}
			res.StageResults[i] = r
		}()
	}
	wg.Wait()
	if failed != nil {
		return nil, failed
	}
	for i := 1; i < len(jobs); i++ {
		res.OverlappedStarts += overlapped(res.StageResults[i-1].Events, res.StageResults[i].Events)
	}
	res.Final = res.StageResults[len(jobs)-1]
	return res, nil
}

// plan validates the chain and derives every stage's plan and, for each
// stage after the first, its Map readiness graph: the upstream keyblocks
// each of its splits reads. That is depgraph.Build over the downstream
// splits with a unit extraction — every input point its own key — and
// the upstream partitioner.
func plan(stages []Stage) ([]*core.Plan, []*depgraph.Graph, error) {
	if len(stages) == 0 {
		return nil, nil, fmt.Errorf("pipeline: no stages")
	}
	plans := make([]*core.Plan, len(stages))
	upstream := make([]*depgraph.Graph, len(stages))
	for i, st := range stages {
		if st.Query == nil {
			return nil, nil, fmt.Errorf("pipeline: stage %d has no query", i)
		}
		if st.Reducers <= 0 {
			return nil, nil, fmt.Errorf("pipeline: stage %d needs reducers", i)
		}
		if i > 0 && !plans[i-1].Space.ContainsSlab(st.Query.Input) {
			return nil, nil, fmt.Errorf("pipeline: stage %d input %v does not chain from stage %d output space %v",
				i, st.Query.Input, i-1, plans[i-1].Space)
		}
		_, splitPoints := core.RequestDefaults(st.Query, st.Reducers, 0)
		p, err := core.NewPlan(st.Query, core.EngineSIDR, core.Options{Reducers: st.Reducers, SplitPoints: splitPoints})
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
		plans[i] = p
		if i == 0 {
			continue
		}
		unit := make(coords.Shape, st.Query.Input.Rank())
		for d := range unit {
			unit[d] = 1
		}
		points := &query.Query{Input: st.Query.Input, Extraction: coords.Extraction{Shape: unit}}
		if upstream[i], err = depgraph.Build(points, mapreduce.Slabs(p.Splits), plans[i-1].Part); err != nil {
			return nil, nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
	}
	return plans, upstream, nil
}

// overlapped counts the downstream stage's MapStarts that came before
// the upstream stage's last ReduceEnd.
func overlapped(up, down []mapreduce.Event) int {
	var last time.Time
	for _, e := range up {
		if e.Kind == mapreduce.ReduceEnd && e.At.After(last) {
			last = e.At
		}
	}
	n := 0
	for _, e := range down {
		if e.Kind == mapreduce.MapStart && e.At.Before(last) {
			n++
		}
	}
	return n
}
