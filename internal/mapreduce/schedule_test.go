package mapreduce

// The job loop's rule — readiness from I_ℓ counters, re-arm on a loss
// report, the kv-count gate, commit exactly once — checked with fake
// Runners: no network, and on a one-worker pool no scheduling freedom
// either, so a seed replays the same interleaving every time.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/kv"
)

// kbCount is a Partitioner for hand-written graphs: only the keyblock
// count matters, no key is ever routed.
type kbCount int

func (n kbCount) Name() string      { return "hand-written" }
func (n kbCount) NumKeyblocks() int { return int(n) }
func (n kbCount) Partition(coords.Coord) (int, error) {
	return 0, errors.New("hand-written graphs route no keys")
}

// synthRunner is a loss-free Runner over a hand-written graph. A Map
// output is a pure function of (split, keyblock), so no input is read
// and a reference is just the split id.
type synthRunner struct{ g *depgraph.Graph }

func synthCount(s, l int) int64 { return int64(3*s + l + 1) }

// synthPairs is split s's sorted stream for keyblock l: one key every
// split feeding l shares — the merge folds it across streams, and float
// addition order, i.e. stream order, shows in the sum's bits — and one
// key of the split's own.
func synthPairs(s, l int) []kv.Pair {
	return []kv.Pair{
		{Key: coords.NewCoord(int64(l)), Value: oneValue(0.1 * float64(s+1))},
		{Key: coords.NewCoord(int64(1000 + s)), Value: oneValue(float64(s) + 0.5)},
	}
}

func (r synthRunner) RunMap(_ context.Context, i int) (MapResult, error) {
	res := MapResult{Ref: i}
	for _, l := range r.g.SplitToKB[i] {
		res.Records += synthCount(i, l)
	}
	return res, nil
}

func (r synthRunner) Fetch(_ context.Context, l int, refs []any) (streams [][]kv.Pair, tally int64, lost []int, err error) {
	for _, ref := range refs {
		s := ref.(int)
		for _, kb := range r.g.SplitToKB[s] {
			if kb == l {
				streams = append(streams, synthPairs(s, l))
				tally += synthCount(s, l)
			}
		}
	}
	return streams, tally, nil, nil
}

// handGraph builds the Config of a job over a hand-written dependency
// graph (keyblock → splits, ascending) served by a synthRunner.
func handGraph(t *testing.T, nSplits int, kbToSplits [][]int) Config {
	t.Helper()
	g := &depgraph.Graph{
		SplitToKB:     make([][]int, nSplits),
		KBToSplits:    kbToSplits,
		ExpectedCount: make([]int64, len(kbToSplits)),
	}
	for l, deps := range kbToSplits {
		for _, s := range deps {
			g.SplitToKB[s] = append(g.SplitToKB[s], l)
			g.ExpectedCount[l] += synthCount(s, l)
		}
	}
	return Config{
		Query:   mustParse(t, "sum v[0 : 64] es {1}"),
		Splits:  make([]InputSplit, nSplits),
		Part:    kbCount(len(kbToSplits)),
		Graph:   g,
		Runner:  synthRunner{g},
		Barrier: DependencyBarrier,
	}
}

// twoByTwo is the graph the cluster's white-box scheduling tests used:
// two splits, each feeding both of two keyblocks.
func twoByTwo(t *testing.T) Config { return handGraph(t, 2, [][]int{{0, 1}, {0, 1}}) }

// lossyRef is a lossyRunner's reference: the inner runner's, tagged with
// the execution of its split that produced it.
type lossyRef struct {
	split, serial int
	inner         any
}

// lossyRunner wraps a Runner and loses its outputs on demand: lose picks
// which of a fetch's dependencies are reported gone. It logs what the
// job loop did with it — executions per split, and for every keyblock
// the references and tally of the last fetch that returned streams.
type lossyRunner struct {
	inner taskRunner
	// lose is asked outside mu on fetch number call (1-based) of keyblock
	// l, with the splits whose outputs the fetch was handed. Nil loses
	// nothing.
	lose func(l, call int, splits []int) []int
	// flaky, when set, says how many tries of a Map execution fail before
	// one succeeds. A failed try is retried inside RunMap — the Runner
	// contract — so the job loop must not notice.
	flaky func(split int) int

	mu      sync.Mutex
	runs    []int // RunMap calls per split = the newest output's serial
	calls   map[int]int
	fetched map[int][]lossyRef
	tallies map[int]int64
}

func newLossy(cfg *Config, f faults) *lossyRunner {
	inner := cfg.Runner
	if inner == nil {
		j, err := NewJob(*cfg)
		if err != nil {
			panic(err)
		}
		inner = j.runner // the in-process runner over cfg's readers
	}
	r := &lossyRunner{inner: inner, lose: f.lose, flaky: f.flaky, runs: make([]int, len(cfg.Splits)),
		calls: map[int]int{}, fetched: map[int][]lossyRef{}, tallies: map[int]int64{}}
	cfg.Runner = r
	return r
}

func (r *lossyRunner) RunMap(ctx context.Context, i int) (MapResult, error) {
	r.mu.Lock()
	r.runs[i]++
	serial := r.runs[i]
	r.mu.Unlock()
	if r.flaky != nil {
		for n := r.flaky(i); n > 0; n-- {
			if _, err := r.inner.RunMap(ctx, i); err != nil { // the try whose result is thrown away
				return MapResult{}, err
			}
		}
	}
	res, err := r.inner.RunMap(ctx, i)
	res.Ref = lossyRef{split: i, serial: serial, inner: res.Ref}
	return res, err
}

func (r *lossyRunner) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	r.mu.Lock()
	r.calls[l]++
	call := r.calls[l]
	r.mu.Unlock()
	consumed, inner, splits := make([]lossyRef, len(refs)), make([]any, len(refs)), make([]int, len(refs))
	for k, ref := range refs {
		consumed[k] = ref.(lossyRef)
		inner[k], splits[k] = consumed[k].inner, consumed[k].split
	}
	if r.lose != nil {
		if lost := r.lose(l, call, splits); len(lost) > 0 {
			return nil, 0, lost, fmt.Errorf("lossy runner: keyblock %d fetch %d lost splits %v", l, call, lost)
		}
	}
	streams, tally, lost, err := r.inner.Fetch(ctx, l, inner)
	r.mu.Lock()
	r.fetched[l], r.tallies[l] = consumed, tally
	r.mu.Unlock()
	return streams, tally, lost, err
}

// reruns is the number of re-executions the runner saw: Σ (runs − 1).
func (r *lossyRunner) reruns() (n int64) {
	for _, c := range r.runs {
		n += int64(c - 1)
	}
	return n
}

// faults is what a lossyRunner may be asked to do wrong; see its lose
// and flaky fields.
type faults struct {
	lose  func(l, call int, splits []int) []int
	flaky func(split int) int
}

// seededFaults draws a run's faults from one seeded source, in the order
// the runner asks: every Map execution fails a transient try first with
// probability 0.2, and every dependency of every fetch is lost with
// probability p — but no split more than MaxTaskAttempts−1 times, which
// keeps every schedule inside the attempt budget.
func seededFaults(seed int64, p float64) faults {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	losses := map[int]int{}
	return faults{
		lose: func(_, _ int, splits []int) (lost []int) {
			mu.Lock()
			defer mu.Unlock()
			for _, s := range splits {
				if rng.Float64() < p && losses[s] < MaxTaskAttempts-1 {
					losses[s]++
					lost = append(lost, s)
				}
			}
			return lost
		},
		flaky: func(int) int {
			mu.Lock()
			defer mu.Unlock()
			if rng.Float64() < 0.2 {
				return 1
			}
			return 0
		},
	}
}

// losing is the faults of a schedule that only loses outputs.
func losing(lose func(l, call int, splits []int) []int) faults { return faults{lose: lose} }

// scheduleRun is one job run under a lossyRunner plus what was observed
// from outside it.
type scheduleRun struct {
	res     *Result
	runner  *lossyRunner
	commits map[int]int
	// staleCommit names a keyblock that committed from a reference that
	// was not its split's newest output at that moment (one-worker runs
	// only: with one worker nothing can move between commit and callback).
	staleCommit string
}

func runSchedule(t *testing.T, cfg Config, workers int, f faults) (*scheduleRun, error) {
	t.Helper()
	run := &scheduleRun{commits: map[int]int{}}
	run.runner = newLossy(&cfg, f)
	cfg.Workers = workers
	var mu sync.Mutex
	cfg.OnReduceOutput = func(out ReduceOutput) {
		mu.Lock()
		defer mu.Unlock()
		run.commits[out.Keyblock]++
		if workers != 1 {
			return
		}
		run.runner.mu.Lock()
		defer run.runner.mu.Unlock()
		for _, ref := range run.runner.fetched[out.Keyblock] {
			if ref.serial != run.runner.runs[ref.split] {
				run.staleCommit = fmt.Sprintf("keyblock %d committed split %d's output %d, newest is %d",
					out.Keyblock, ref.split, ref.serial, run.runner.runs[ref.split])
			}
		}
	}
	finished := make(chan error, 1)
	go func() {
		var err error
		run.res, err = Run(cfg)
		finished <- err
	}()
	select {
	case err := <-finished:
		return run, err
	case <-time.After(10 * time.Second):
		t.Fatal("job did not terminate")
		return nil, nil
	}
}

// checkSchedule asserts what must hold of every completed schedule,
// whatever was lost on the way.
func checkSchedule(t *testing.T, cfg Config, run *scheduleRun, clean *Result) {
	t.Helper()
	if run.staleCommit != "" {
		t.Fatal(run.staleCommit)
	}
	all := make([]int, len(cfg.Splits))
	for i := range all {
		all[i] = i
	}
	for l := 0; l < cfg.Part.NumKeyblocks(); l++ {
		if run.commits[l] != 1 {
			t.Fatalf("keyblock %d committed %d times, want exactly once", l, run.commits[l])
		}
		want := all
		if cfg.Barrier == DependencyBarrier {
			want = cfg.Graph.KBToSplits[l]
		}
		got := make([]int, 0, len(want))
		for _, ref := range run.runner.fetched[l] {
			got = append(got, ref.split)
		}
		if !reflect.DeepEqual(got, append([]int{}, want...)) {
			t.Fatalf("keyblock %d consumed splits %v, want its dependency set %v", l, got, want)
		}
		if run.runner.tallies[l] != cfg.Graph.ExpectedCount[l] {
			t.Fatalf("keyblock %d committed on tally %d, expected count %d", l, run.runner.tallies[l], cfg.Graph.ExpectedCount[l])
		}
	}
	lostEvents := int64(0)
	for _, e := range run.res.Events {
		if e.Kind == mapLost {
			lostEvents++
		}
	}
	if re := run.runner.reruns(); run.res.Counters.RecomputedMaps != re || lostEvents != re {
		t.Fatalf("RecomputedMaps = %d, mapLost events = %d, re-executions seen by the runner = %d",
			run.res.Counters.RecomputedMaps, lostEvents, re)
	}
	if d := diffOutputs(run.res.Outputs, clean.Outputs); d != "" {
		t.Fatalf("output differs from the loss-free run: %s", d)
	}
}

// diffOutputs compares two runs' outputs key for key and bit for bit.
func diffOutputs(got, want []ReduceOutput) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d keyblocks, want %d", len(got), len(want))
	}
	for l := range want {
		if !reflect.DeepEqual(got[l].Keys, want[l].Keys) {
			return fmt.Sprintf("keyblock %d keys %v, want %v", l, got[l].Keys, want[l].Keys)
		}
		for i, vals := range want[l].Values {
			if len(got[l].Values[i]) != len(vals) {
				return fmt.Sprintf("keyblock %d key %v: %d values, want %d", l, want[l].Keys[i], len(got[l].Values[i]), len(vals))
			}
			for k, v := range vals {
				if math.Float64bits(got[l].Values[i][k]) != math.Float64bits(v) {
					return fmt.Sprintf("keyblock %d key %v value %d: %v, want %v", l, want[l].Keys[i], k, got[l].Values[i][k], v)
				}
			}
		}
	}
	return ""
}

// eventTrace renders a run's event sequence without its timestamps.
func eventTrace(res *Result) string {
	var b strings.Builder
	for _, e := range res.Events {
		fmt.Fprintf(&b, "%d:%d ", e.Kind, e.Detail)
	}
	return b.String()
}

// TestSeededSchedules replays seeded loss schedules over hand-written
// graphs and a planner graph under both barriers. On one worker the
// whole interleaving is a function of the seed, so the event sequence
// must repeat exactly; on four, losses race each other — stale loss
// reports, stale runs in the queue and mid-fetch — and the invariants
// must hold all the same.
func TestSeededSchedules(t *testing.T) {
	chain := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4}}
	star := [][]int{{0, 1, 2, 3, 4, 5}, {0}, {3}, {5}, {}}
	graphs := []struct {
		name string
		cfg  func() Config
	}{
		{"2x2", func() Config { return twoByTwo(t) }},
		{"chain", func() Config { return handGraph(t, 5, chain) }},
		{"star", func() Config { return handGraph(t, 6, star) }},
		{"planner", func() Config { return buildJob(t, mustParse(t, "avg temp[0,0 : 28,10] es {7,5}"), 3, true, true) }},
	}
	start := time.Now()
	seeds := 0
	for gi, g := range graphs {
		for _, barrier := range []barrierMode{DependencyBarrier, globalBarrier} {
			newCfg := func() Config {
				cfg := g.cfg()
				cfg.Barrier = barrier
				return cfg
			}
			cleanRun, err := runSchedule(t, newCfg(), 1, faults{})
			if err != nil {
				t.Fatalf("%s/%s loss-free: %v", g.name, barrier, err)
			}
			checkSchedule(t, newCfg(), cleanRun, cleanRun.res)
			for n := 0; n < 26; n++ {
				seed := int64(1000*gi + 100*int(barrier) + n)
				seeds++
				name := fmt.Sprintf("%s/%s/seed=%d", g.name, barrier, seed)
				var traces [2]string
				for rep := range traces {
					run, err := runSchedule(t, newCfg(), 1, seededFaults(seed, 0.3))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkSchedule(t, newCfg(), run, cleanRun.res)
					traces[rep] = eventTrace(run.res)
				}
				if traces[0] != traces[1] {
					t.Fatalf("%s: event sequence differs between two runs of one seed:\n%s\n%s", name, traces[0], traces[1])
				}
				if n%4 == 0 {
					run, err := runSchedule(t, newCfg(), 4, seededFaults(seed, 0.3))
					if err != nil {
						t.Fatalf("%s on 4 workers: %v", name, err)
					}
					checkSchedule(t, newCfg(), run, cleanRun.res)
				}
			}
		}
	}
	if seeds < 200 {
		t.Fatalf("only %d seeds", seeds)
	}
	t.Logf("%d seeds in %v", seeds, time.Since(start)) // ≈ 0.2 s; a few seconds under -race
}

// TestAttemptBudgetExhausted: a split whose output is lost every time it
// is fetched re-executes until the budget is spent, then the job fails
// with ErrRetryExhausted carrying the runner's reason.
func TestAttemptBudgetExhausted(t *testing.T) {
	run, err := runSchedule(t, twoByTwo(t), 1, losing(func(_, _ int, _ []int) []int { return []int{0} }))
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
	if !strings.Contains(err.Error(), "lossy runner") {
		t.Fatalf("err = %v does not carry the loss's cause", err)
	}
	if run.runner.runs[0] != MaxTaskAttempts || run.runner.runs[1] != 1 {
		t.Fatalf("executions per split = %v, want the lost one %d times and the healthy one once", run.runner.runs, MaxTaskAttempts)
	}
	if len(run.commits) != 0 {
		t.Fatalf("keyblocks %v committed though a dependency was never fetchable", run.commits)
	}
}

// siblingLoss runs the 2×2 graph on one worker with keyblock 0's first
// fetch reporting split 0 lost. Both Reduce tasks are queued by then, so
// keyblock 1's sits in the queue holding an enqueue that the re-arm must
// take back.
func siblingLoss(t *testing.T) *scheduleRun {
	t.Helper()
	cfg := twoByTwo(t)
	clean, err := runSchedule(t, cfg, 1, faults{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := runSchedule(t, cfg, 1, losing(func(l, call int, _ []int) []int {
		if l == 0 && call == 1 {
			return []int{0}
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("job did not survive the loss: %v", err)
	}
	checkSchedule(t, cfg, run, clean.res)
	return run
}

// TestRearmRepairsSiblingKeyblocks is the regression test for the
// re-execution hang: when a lost split feeds several keyblocks, re-arm
// must re-open the siblings too — counter back up, enqueue cleared — or
// the sibling's stale queued run steps aside, nothing ever enqueues it
// again, and the job never resolves.
func TestRearmRepairsSiblingKeyblocks(t *testing.T) {
	run := siblingLoss(t)
	if got := run.runner.runs; !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("executions per split = %v, want the lost split twice and the healthy one once", got)
	}
	if run.res.Counters.RecomputedMaps != 1 {
		t.Fatalf("RecomputedMaps = %d, want 1", run.res.Counters.RecomputedMaps)
	}
	for l := 0; l < 2; l++ {
		if ref := run.runner.fetched[l][0]; ref.serial != 2 {
			t.Fatalf("keyblock %d committed split 0's output %d, want the re-executed one", l, ref.serial)
		}
	}
}

// TestStaleReduceRunClearsEnqueue: a Reduce run that was queued before a
// dependency regressed must step aside without fetching — its snapshot
// would name an output that is gone — and the keyblock must still run,
// once, when the re-execution completes.
func TestStaleReduceRunClearsEnqueue(t *testing.T) {
	run := siblingLoss(t)
	if run.runner.calls[1] != 1 {
		t.Fatalf("keyblock 1 fetched %d times: its stale queued run fetched instead of stepping aside", run.runner.calls[1])
	}
	if run.runner.calls[0] != 2 {
		t.Fatalf("keyblock 0 fetched %d times, want the lossy fetch and one more", run.runner.calls[0])
	}
	starts := 0
	for _, e := range run.res.Events {
		if e.Kind == ReduceStart && e.Detail == 1 {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("keyblock 1 logged %d ReduceStart events, want 1", starts)
	}
}

// TestReexecutedAttemptCannotDoubleSatisfy: an output is invalidated
// once per generation, and a re-executed split counts once. Two Reduce
// runs fetch the same generation of split 0 concurrently and both report
// it lost; the second report is stale — it must not invalidate the fresh
// generation, nor re-open anything twice. Then, with both splits lost,
// neither keyblock may run while either re-execution is still open.
func TestReexecutedAttemptCannotDoubleSatisfy(t *testing.T) {
	cfg := twoByTwo(t)
	clean, err := runSchedule(t, cfg, 1, faults{})
	if err != nil {
		t.Fatal(err)
	}

	// Both first fetches wait for each other before reporting the loss.
	var both sync.WaitGroup
	both.Add(2)
	run, err := runSchedule(t, cfg, 2, losing(func(_, call int, _ []int) []int {
		if call != 1 {
			return nil
		}
		both.Done()
		both.Wait()
		return []int{0}
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, cfg, run, clean.res)
	if got := run.runner.runs; !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("executions per split = %v: the stale second report invalidated the fresh output", got)
	}

	// Keyblock 0's first fetch loses both splits. Split 0's re-execution
	// completes first; no Reduce may start until split 1's has too.
	run, err = runSchedule(t, cfg, 1, losing(func(l, call int, _ []int) []int {
		if l == 0 && call == 1 {
			return []int{0, 1}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, cfg, run, clean.res)
	lastLost, lastMapEnd, firstStart := -1, -1, -1
	for i, e := range run.res.Events {
		switch {
		case e.Kind == mapLost:
			lastLost, firstStart = i, -1
		case e.Kind == MapEnd:
			lastMapEnd = i
		case e.Kind == ReduceStart && firstStart < 0:
			firstStart = i
		}
	}
	if lastLost < 0 || firstStart < lastMapEnd {
		t.Fatalf("a Reduce started while part of its dependency set was still re-executing: %s", eventTrace(run.res))
	}
}

// TestFailureRecoveryRefetch: refetching is the Runner's recovery, not
// the loop's. A fetch that fails with nothing lost is retried inside
// Fetch — the outputs are where the references say — so the loop sees
// one fetch per keyblock, re-executes nothing and logs no loss.
func TestFailureRecoveryRefetch(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 2, true, true)
	lossy := newLossy(&cfg, faults{})
	flaky := &refetchRunner{taskRunner: lossy, failFirst: map[int]bool{0: true, 1: true}}
	cfg.Runner = flaky
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	if flaky.refetches != 2 {
		t.Fatalf("runner refetched %d times, want 2", flaky.refetches)
	}
	if res.Counters.RecomputedMaps != 0 || lossy.reruns() != 0 {
		t.Fatalf("refetch recovery recomputed %d maps", res.Counters.RecomputedMaps)
	}
	for _, e := range res.Events {
		if e.Kind == mapLost {
			t.Fatalf("split %d declared lost though its output was only refetched", e.Detail)
		}
	}
}

// refetchRunner's fetch primitive fails the first time it is used for a
// listed keyblock the way a transport does — an error, nothing lost —
// and its Fetch recovers by fetching again from the same references.
type refetchRunner struct {
	taskRunner
	mu        sync.Mutex
	failFirst map[int]bool
	refetches int
}

var errTransient = errors.New("transient fetch failure")

func (r *refetchRunner) fetchOnce(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	r.mu.Lock()
	fail := r.failFirst[l]
	delete(r.failFirst, l)
	r.mu.Unlock()
	if fail {
		return nil, 0, nil, errTransient
	}
	return r.taskRunner.Fetch(ctx, l, refs)
}

func (r *refetchRunner) Fetch(ctx context.Context, l int, refs []any) ([][]kv.Pair, int64, []int, error) {
	for {
		streams, tally, lost, err := r.fetchOnce(ctx, l, refs)
		if !errors.Is(err, errTransient) {
			return streams, tally, lost, err
		}
		r.mu.Lock()
		r.refetches++
		r.mu.Unlock()
	}
}

// TestSpillFailureRecoveryRefetch: a Map output that stayed put survives
// a failed Reduce run. Keyblock 1's first fetch loses one split of its
// dependency set; only that split re-executes, and the run that follows
// consumes the other dependencies' original outputs again.
func TestSpillFailureRecoveryRefetch(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 2, true, true)
	deps := cfg.Graph.KBToSplits[1]
	if len(deps) < 2 {
		t.Fatalf("test not meaningful: keyblock 1 depends on %v", deps)
	}
	gone := deps[0]
	lossy := newLossy(&cfg, losing(func(l, call int, _ []int) []int {
		if l == 1 && call == 1 {
			return []int{gone}
		}
		return nil
	}))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	if res.Counters.RecomputedMaps != 1 {
		t.Fatalf("recomputed %d maps, want only the lost one", res.Counters.RecomputedMaps)
	}
	for _, consumed := range lossy.fetched[1] {
		want := 1
		if consumed.split == gone {
			want = 2
		}
		if consumed.serial != want || lossy.runs[consumed.split] != want {
			t.Fatalf("keyblock 1 consumed split %d's output %d of %d executions, want %d",
				consumed.split, consumed.serial, lossy.runs[consumed.split], want)
		}
	}
}

// TestFailureRecoveryRecompute: §6 future work — when everything a
// Reduce task fetched is gone, re-execute only the Map subset it depends
// on.
func TestFailureRecoveryRecompute(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	ref := referenceResults(t, q, synthValue)
	cfg := buildJob(t, q, 2, true, true)
	lossy := newLossy(&cfg, losing(func(l, call int, splits []int) []int {
		if l == 1 && call == 1 {
			return splits
		}
		return nil
	}))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	want := int64(len(cfg.Graph.KBToSplits[1]))
	if res.Counters.RecomputedMaps != want || lossy.reruns() != want {
		t.Fatalf("recomputed %d maps (runner saw %d), want %d (only I_ℓ)", res.Counters.RecomputedMaps, lossy.reruns(), want)
	}
	if want >= int64(len(cfg.Splits)) {
		t.Fatalf("test not meaningful: keyblock depends on all %d splits", len(cfg.Splits))
	}
}

// oneValue is a value holding the single observation x.
func oneValue(x float64) kv.Value {
	var v kv.Value
	addPoint(&v, x, false)
	return v
}
