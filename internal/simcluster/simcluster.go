// Package simcluster is a deterministic model of the paper's evaluation
// testbed: 24 worker nodes with 4 Map and 3 Reduce slots each, single-GigE
// networking, and HDFS-style data locality. It has no scheduler of its
// own. A simulated run is the production job loop (mapreduce.Run) driven
// through a Runner that charges virtual time to task slots instead of
// executing anything — so barriers, dispatch order, loss recovery and the
// §3.2.1 count gate in Figures 9-13 and the §6 failure study are the ones
// every real job runs under, and cluster-scale completion curves can be
// regenerated on one machine.
//
// The loop runs on one worker, so tasks are carried out one at a time in
// its dispatch order (ready Reduce tasks before Map tasks, MapOrder and
// ReduceOrder ranks within each) and a run is a list schedule: each task
// is placed on the slot timelines when the loop hands it over, and there
// is no clock to drive.
//
// The duration model is intentionally simple and fully documented:
//
//	mapTime    = (MapBase + MapPerPoint·points) · costFactor · locality · jitter
//	reduceTime = shuffleTail + ReduceBase + ReducePerPair·pairs + output
//
// where shuffleTail is the fetch work that could not be overlapped with
// waiting: one dependency's worth of bytes when a Reduce slot was idle
// before the task's barrier cleared (prefetching hid the rest), or all of
// its bytes when every slot was busy until then (nothing could be
// prefetched).
package simcluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/trace"
)

// Config describes the cluster and its cost model.
type Config struct {
	// Workers is the number of DataNode/TaskTracker nodes (paper: 24).
	Workers int
	// MapSlots and ReduceSlots are per-node task slots (paper: 4 and 3).
	MapSlots    int
	ReduceSlots int

	// MapBase and MapPerPoint set Map task duration (seconds,
	// seconds/point).
	MapBase     float64
	MapPerPoint float64
	// LocalityPenalty multiplies Map duration when the split is not
	// node-local (remote HDFS read).
	LocalityPenalty float64
	// JitterFrac is the +/- fractional duration noise applied per task
	// (straggler model); 0 disables noise.
	JitterFrac float64
	// StragglerProb makes a Map task a straggler with this probability,
	// running StragglerFactor× slower — the long-tail behaviour Hadoop's
	// speculative execution targets. 0 disables stragglers.
	StragglerProb float64
	// StragglerFactor is the straggler slowdown multiple (default 4 when
	// StragglerProb > 0).
	StragglerFactor float64
	// Speculation enables Hadoop-style speculative execution: when the
	// Map phase is nearly drained and a running Map task has taken
	// longer than SpeculationThreshold× the typical duration, a backup
	// copy runs and the earliest finisher wins. SIDR inherits this
	// unchanged; it is orthogonal to the dependency barrier.
	Speculation bool
	// SpeculationThreshold is the slowdown multiple that triggers a
	// backup copy (default 1.5).
	SpeculationThreshold float64

	// ShuffleBandwidth is bytes/second a Reduce task fetches at.
	ShuffleBandwidth float64
	// ConnSetup is the per-shuffle-connection setup cost in seconds;
	// with MaxFetchConcurrency it models §4.6's serialisation of
	// communication when a Reduce task must contact thousands of Map
	// tasks. Zero disables connection costs.
	ConnSetup float64
	// MaxFetchConcurrency bounds a Reduce task's concurrent fetch
	// streams (Hadoop's default is 10); <= 0 means unbounded.
	MaxFetchConcurrency int
	// ReduceBase and ReducePerPair set Reduce processing time.
	ReduceBase    float64
	ReducePerPair float64
	// OutputTime converts output bytes to commit time; nil means free.
	OutputTime func(bytes int64) float64

	// Seed drives the deterministic jitter.
	Seed int64
}

// Split is one Map task's workload.
type Split struct {
	// Points is the number of source points the task reads.
	Points int64
}

// Reduce is one Reduce task's workload.
type Reduce struct {
	// Pairs is the number of intermediate pairs the task merges.
	Pairs int64
	// InBytes is the shuffled input volume.
	InBytes int64
	// OutBytes is the committed output volume.
	OutBytes int64
}

// Job is what the simulator charges for. Everything about how the job
// runs — barrier mode, which Map outputs a Reduce task fetches, task
// order, the splits' locality hints — is the mapreduce.Config it is run
// with.
type Job struct {
	// Splits and Reduces are indexed like the loop's splits and keyblocks.
	Splits  []Split
	Reduces []Reduce
	// MapCostFactor scales Map durations — >1 models stock Hadoop's
	// byte-oriented splits reading data it cannot align to records
	// (SciHadoop's headline improvement).
	MapCostFactor float64
	// Failure optionally injects Reduce-task failures to study the §6
	// recovery trade-off.
	Failure *FailureModel
}

// FailureModel parametrises the §6 failure-recovery study: stock Hadoop
// persists all intermediate data (slowing every Map task) so a failed
// Reduce task just refetches; SIDR's proposed alternative skips
// persistence and re-executes only the failed task's I_ℓ Map subset.
type FailureModel struct {
	// Prob is the probability that a Reduce task fails, once, at the end
	// of its first attempt.
	Prob float64
	// Recompute selects the no-persist strategy: Map tasks run without
	// the persistence overhead, and a failed Reduce task finds the Map
	// outputs it fetched gone — the job loop re-executes them and runs the
	// task again. False models stock persist-and-refetch.
	Recompute bool
	// PersistOverhead is the fractional Map slowdown paid for persisting
	// intermediate data (applied only when Recompute is false).
	PersistOverhead float64
}

// runStats aggregates a simulated run.
type runStats struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// FirstResult is the earliest Reduce commit time.
	FirstResult float64
	// MapsDone is when the last Map task finished, re-executions included.
	MapsDone float64
	// Connections counts shuffle fetches (Table 3's metric), as the job
	// loop counted them.
	Connections int64
	// LocalMaps counts node-local Map executions.
	LocalMaps int
	// FailedReduces counts Reduce tasks that failed and recovered.
	FailedReduces int
	// Stragglers counts Map tasks that ran at the straggler slowdown.
	Stragglers int
	// SpeculativeWins counts stragglers whose backup copy finished
	// first under speculative execution.
	SpeculativeWins int
}

// Result carries the trace and stats of one simulated run.
type Result struct {
	Trace trace.Trace
	Stats runStats
}

// nodeName returns the canonical name of worker i, shared with the HDFS
// namespace so locality hints resolve.
func nodeName(i int) string { return fmt.Sprintf("node%02d", i) }

// Nodes returns the canonical node names for a worker count.
func Nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = nodeName(i)
	}
	return out
}

// Run simulates job as loop would run it: loop is executed by the
// production job loop, on one worker, with every task's body replaced by a
// charge of virtual time (see runner). A job the loop cannot finish — a
// stranded dependency counter, a split re-executed past MaxTaskAttempts, a
// count-gate mismatch — is an error, never a hang.
func Run(cfg Config, loop mapreduce.Config, job Job) (*Result, error) {
	r, err := newRunner(cfg, loop, job)
	if err != nil {
		return nil, err
	}
	loop.Runner, loop.Workers = r, 1
	out, err := mapreduce.Run(loop)
	if err != nil {
		return nil, err
	}
	r.res.Stats.Connections = out.Counters.Connections
	r.res.Stats.Makespan = r.res.Trace.Makespan()
	return &r.res, nil
}

// runner is the simulated mapreduce.Runner. The loop calls it for one task
// at a time, so it needs no locking and its random draws replay identically
// for a given seed.
type runner struct {
	cfg  Config
	job  Job
	loop mapreduce.Config
	rng  *rand.Rand

	nodeOf     map[string]int // node name → index
	mapSlots   []timeline     // slot i belongs to node i / cfg.MapSlots
	reduceFree []float64      // when each Reduce slot is next idle

	mapEnd    []float64 // split → when its current output was committed
	notBefore []float64 // split → the failure that lost its output; a re-execution starts no earlier
	doomed    []bool    // keyblock → its next attempt fails; drawn up front, so both strategies lose the same tasks
	retry     []bool    // keyblock → starting over after a failure, nothing prefetched

	res Result
}

func newRunner(cfg Config, loop mapreduce.Config, job Job) (*runner, error) {
	if cfg.Workers <= 0 || cfg.MapSlots <= 0 || cfg.ReduceSlots <= 0 {
		return nil, fmt.Errorf("simcluster: invalid topology %d/%d/%d", cfg.Workers, cfg.MapSlots, cfg.ReduceSlots)
	}
	if len(job.Splits) != len(loop.Splits) {
		return nil, fmt.Errorf("simcluster: %d split workloads for %d splits", len(job.Splits), len(loop.Splits))
	}
	if loop.Part != nil && len(job.Reduces) != loop.Part.NumKeyblocks() {
		return nil, fmt.Errorf("simcluster: %d reduce workloads for %d keyblocks", len(job.Reduces), loop.Part.NumKeyblocks())
	}
	if job.MapCostFactor <= 0 {
		job.MapCostFactor = 1
	}
	if cfg.LocalityPenalty == 0 {
		cfg.LocalityPenalty = 1
	}
	r := &runner{
		cfg:        cfg,
		job:        job,
		loop:       loop,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nodeOf:     make(map[string]int, cfg.Workers),
		mapSlots:   make([]timeline, cfg.Workers*cfg.MapSlots),
		reduceFree: make([]float64, cfg.Workers*cfg.ReduceSlots),
		mapEnd:     make([]float64, len(job.Splits)),
		notBefore:  make([]float64, len(job.Splits)),
		doomed:     make([]bool, len(job.Reduces)),
		retry:      make([]bool, len(job.Reduces)),
	}
	if fm := job.Failure; fm != nil {
		fails := rand.New(rand.NewSource(cfg.Seed))
		for l := range r.doomed {
			r.doomed[l] = fails.Float64() < fm.Prob
		}
	}
	for n := 0; n < cfg.Workers; n++ {
		r.nodeOf[nodeName(n)] = n
	}
	for i := range r.mapSlots {
		r.mapSlots[i] = timeline{{0, math.Inf(1)}}
	}
	r.res.Stats.FirstResult = math.NaN()
	return r, nil
}

func (r *runner) jitter() float64 {
	if r.cfg.JitterFrac <= 0 {
		return 1
	}
	return 1 + r.cfg.JitterFrac*(2*r.rng.Float64()-1)
}

// RunMap charges Map task split to the Map slot where it finishes first.
// The task picks its worker — a node holding the split's blocks runs it
// without LocalityPenalty — the way the cluster coordinator places a
// dispatch, rather than a freed slot picking its task. A re-execution
// starts no earlier than the failure that lost the previous output.
func (r *runner) RunMap(_ context.Context, split int) (mapreduce.MapResult, error) {
	cfg, points := &r.cfg, r.job.Splits[split].Points
	dur := (cfg.MapBase + cfg.MapPerPoint*float64(points)) * r.job.MapCostFactor * r.jitter()
	if fm := r.job.Failure; fm != nil && !fm.Recompute {
		// Persisting intermediate data to disk slows every Map task (the
		// cost §6 proposes to eliminate).
		dur *= 1 + fm.PersistOverhead
	}
	if cfg.StragglerProb > 0 && r.rng.Float64() < cfg.StragglerProb {
		r.res.Stats.Stragglers++
		factor := cfg.StragglerFactor
		if factor <= 1 {
			factor = 4
		}
		straggled := dur * factor
		if cfg.Speculation {
			// A backup copy launches once the task exceeds the threshold
			// and runs at normal speed; the earliest finisher wins. (The
			// backup's slot is modelled as opportunistic spare capacity.)
			threshold := cfg.SpeculationThreshold
			if threshold <= 0 {
				threshold = 1.5
			}
			if backup := dur*threshold + dur; backup < straggled {
				r.res.Stats.SpeculativeWins++
				straggled = backup
			}
		}
		dur = straggled
	}

	local := make([]bool, cfg.Workers)
	for _, h := range r.loop.Splits[split].Hosts {
		if n, ok := r.nodeOf[h]; ok {
			local[n] = true
		}
	}
	slot, gap, start, end := -1, 0, 0.0, math.Inf(1)
	for i, tl := range r.mapSlots {
		d := dur
		if !local[i/cfg.MapSlots] {
			d *= cfg.LocalityPenalty
		}
		if s, g := tl.fit(r.notBefore[split], d); s+d < end {
			slot, gap, start, end = i, g, s, s+d
		}
	}
	r.mapSlots[slot].book(gap, start, end)
	if local[slot/cfg.MapSlots] {
		r.res.Stats.LocalMaps++
	}
	r.mapEnd[split] = end
	r.res.Stats.MapsDone = math.Max(r.res.Stats.MapsDone, end)
	r.res.Trace.Add(trace.Map, split, end)
	return mapreduce.MapResult{Ref: split, Records: points}, nil
}

// Fetch charges Reduce task l to the earliest-free Reduce slot, starting
// once the Map outputs it was handed are all committed, and reports the
// planner's expected count as its tally so the loop's §3.2.1 gate stays
// on. Under the no-persist failure model a failing task reports every
// output it fetched as lost instead of committing: the loop re-executes
// those splits and runs the task again. It returns no pairs: the
// simulator models a Reduce's time, not its data.
func (r *runner) Fetch(_ context.Context, l int, refs []any) (streams [][]kv.Pair, tally int64, lost []int, err error) {
	cfg, rd := &r.cfg, r.job.Reduces[l]
	var barrier float64
	for _, ref := range refs {
		barrier = math.Max(barrier, r.mapEnd[ref.(int)])
	}
	slot := 0
	for i, free := range r.reduceFree {
		if free < r.reduceFree[slot] {
			slot = i
		}
	}
	free := r.reduceFree[slot]

	// Shuffle tail: a slot idle while the task waited prefetched all but
	// the last dependency's bytes; a slot busy until the barrier cleared,
	// or a task starting over after a failure, prefetched nothing.
	tailBytes := rd.InBytes
	if free < barrier && !r.retry[l] && len(refs) > 0 {
		tailBytes /= int64(len(refs))
	}
	var shuffle float64
	if cfg.ShuffleBandwidth > 0 {
		shuffle = float64(tailBytes) / cfg.ShuffleBandwidth
	}
	// Connection setup, serialised in MaxFetchConcurrency batches (§4.6's
	// "undesirable serialization of communication").
	if conns := int64(len(refs)); cfg.ConnSetup > 0 && conns > 0 {
		batches := conns
		if cfg.MaxFetchConcurrency > 0 {
			batches = (conns + int64(cfg.MaxFetchConcurrency) - 1) / int64(cfg.MaxFetchConcurrency)
		}
		shuffle += float64(batches) * cfg.ConnSetup
	}
	processing := cfg.ReduceBase + cfg.ReducePerPair*float64(rd.Pairs)
	dur := shuffle + processing
	if cfg.OutputTime != nil {
		dur += cfg.OutputTime(rd.OutBytes)
	}
	dur *= r.jitter()
	end := math.Max(barrier, free) + dur

	// Failure injection (§6): the task fails once, at the end of its first
	// attempt. With persisted intermediate data it refetches and reprocesses
	// in place; without, the Map outputs it consumed are gone.
	if r.doomed[l] {
		r.doomed[l] = false
		r.res.Stats.FailedReduces++
		if r.job.Failure.Recompute {
			r.retry[l] = true
			r.reduceFree[slot] = end
			for _, ref := range refs {
				r.notBefore[ref.(int)] = end
				lost = append(lost, ref.(int))
			}
			return nil, 0, lost, nil
		}
		if cfg.ShuffleBandwidth > 0 {
			end += float64(rd.InBytes) / cfg.ShuffleBandwidth
		}
		end += processing
	}
	r.reduceFree[slot] = end
	if first := &r.res.Stats.FirstResult; math.IsNaN(*first) || end < *first {
		*first = end // commits are not handed over in time order
	}
	r.res.Trace.Add(trace.Reduce, l, end)
	if g := r.loop.Graph; g != nil {
		tally = g.ExpectedCount[l]
	}
	return nil, tally, nil, nil
}

// timeline is one Map slot's idle time: disjoint gaps in ascending order,
// the last one open-ended. Gaps before the last exist only where a
// re-executed Map task had to wait for the failure that caused it; later
// tasks fill them.
type timeline []gap

type gap struct{ from, to float64 }

// fit returns the earliest start ≥ ready at which d seconds fit into one
// of the slot's gaps, and that gap's index.
func (t timeline) fit(ready, d float64) (start float64, gap int) {
	for g, idle := range t {
		if start = math.Max(idle.from, ready); start+d <= idle.to {
			return start, g
		}
	}
	panic("simcluster: timeline without an open end")
}

// book occupies [start, end) of gap g.
func (t *timeline) book(g int, start, end float64) {
	idle := (*t)[g]
	(*t)[g].from = end
	if start > idle.from {
		*t = slices.Insert(*t, g, gap{idle.from, start})
	}
}
