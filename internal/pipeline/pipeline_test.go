package pipeline

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/mapreduce"
	"sidr/internal/query"
)

func synth(k coords.Coord) float64 {
	var h uint64 = 1469598103934665603
	for _, x := range k {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return float64(h%1000)/10 - 50
}

func mustParse(t *testing.T, s string) *query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// twoStage builds: stage 1 = weekly/5-lat averages over {364, 10};
// stage 2 = averages of 4×2 blocks of stage 1's {52, 2} output.
func twoStage(t *testing.T) []Stage {
	t.Helper()
	return []Stage{
		{Query: mustParse(t, "avg temp[0,0 : 364,10] es {7,5}"), Reducers: 4},
		{Query: mustParse(t, "avg s1[0,0 : 52,2] es {4,2}"), Reducers: 2},
	}
}

// reference computes the two-stage composition sequentially.
func reference(t *testing.T) map[string]float64 {
	t.Helper()
	// Stage 1.
	s1 := map[string]float64{}
	s1space := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(52, 2))
	s1space.Each(func(kp coords.Coord) bool {
		var sum float64
		var n int
		tile := coords.MustSlab(coords.NewCoord(kp[0]*7, kp[1]*5), coords.NewShape(7, 5))
		tile.Each(func(k coords.Coord) bool {
			sum += synth(k)
			n++
			return true
		})
		s1[kp.String()] = sum / float64(n)
		return true
	})
	// Stage 2.
	out := map[string]float64{}
	s2space := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(13, 1))
	s2space.Each(func(kp coords.Coord) bool {
		var sum float64
		var n int
		tile := coords.MustSlab(coords.NewCoord(kp[0]*4, kp[1]*2), coords.NewShape(4, 2))
		tile.Each(func(k coords.Coord) bool {
			sum += s1[k.String()]
			n++
			return true
		})
		out[kp.String()] = sum / float64(n)
		return true
	})
	return out
}

func TestRunValidation(t *testing.T) {
	stages := twoStage(t)
	if _, err := Run(nil, stages, Options{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, nil, Options{}); err == nil {
		t.Fatal("no stages accepted")
	}
	bad := twoStage(t)
	bad[1].Reducers = 0
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, bad, Options{}); err == nil {
		t.Fatal("zero reducers accepted")
	}
	mis := twoStage(t)
	mis[1].Query = mustParse(t, "avg s1[0,0 : 99,2] es {4,2}")
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, mis, Options{}); err == nil {
		t.Fatal("mis-chained stages accepted")
	}
	noQ := twoStage(t)
	noQ[0].Query = nil
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, noQ, Options{}); err == nil {
		t.Fatal("nil stage query accepted")
	}

	// An offset upstream input has an offset K'^T (corner {2,0}): a
	// zero-cornered copy of its shape is not inside it and must be
	// rejected before any stage reads a record.
	var reads atomic.Int64
	counting := readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		reads.Add(1)
		return (&mapreduce.FuncReader{Fn: synth}).ReadSlabInto(slab, dst)
	})
	zeroCornered := offsetChain(t, "avg s1[0,0 : 50,2] es {5,2}")
	if _, err := Run(counting, zeroCornered, Options{}); err == nil {
		t.Fatal("zero-cornered copy of an offset output space accepted")
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("rejected chain read %d batches", n)
	}
	// The chain that names the offset space itself runs and matches the
	// stages run one after another.
	chained := offsetChain(t, "avg s1[2,0 : 50,2] es {5,2}")
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, chained, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, res.Final, sequential(t, &mapreduce.FuncReader{Fn: synth}, chained))
}

// offsetChain is an upstream stage over an offset input (K'^T corner
// {2,0}, shape {50,2}) followed by the given downstream query.
func offsetChain(t *testing.T, down string) []Stage {
	t.Helper()
	return []Stage{
		{Query: mustParse(t, "avg temp[14,0 : 350,10] es {7,5}"), Reducers: 4},
		{Query: mustParse(t, down), Reducers: 2},
	}
}

// sequential runs the stages one after another, each on a reader over the
// previous stage's committed outputs — a key's first value, absent keys
// zero — and returns the last stage's result.
func sequential(t *testing.T, source coords.RecordReader, stages []Stage) *mapreduce.Result {
	t.Helper()
	reader := source
	var last *mapreduce.Result
	for i := range stages {
		res, err := Run(reader, stages[i:i+1], Options{})
		if err != nil {
			t.Fatal(err)
		}
		last = res.Final
		firsts := firstValues(last)
		reader = &mapreduce.FuncReader{Fn: func(k coords.Coord) float64 { return firsts[k.String()] }}
	}
	return last
}

// firstValues maps each output key of a stage to its first value.
func firstValues(res *mapreduce.Result) map[string]float64 {
	m := map[string]float64{}
	for _, out := range res.Outputs {
		for i, k := range out.Keys {
			if len(out.Values[i]) > 0 {
				m[k.String()] = out.Values[i][0]
			}
		}
	}
	return m
}

// sameOutputs requires two results to hold bit-identical values per key.
func sameOutputs(t *testing.T, got, want *mapreduce.Result) {
	t.Helper()
	g, w := firstValues(got), firstValues(want)
	if len(g) != len(w) || len(g) == 0 {
		t.Fatalf("got %d keys, want %d", len(g), len(w))
	}
	for k, v := range w {
		if gv, ok := g[k]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
			t.Fatalf("key %s: got %v want %v", k, gv, v)
		}
	}
}

// TestFilterChainReadsFirstValueAndZero pins what a downstream stage
// reads of a multi-valued upstream: a key the filter omitted reads as 0,
// a key with several survivors as its first value.
func TestFilterChainReadsFirstValueAndZero(t *testing.T) {
	stages := []Stage{
		{Query: mustParse(t, "filter_gt temp[0,0 : 364,10] es {7,5} param 45"), Reducers: 4},
		{Query: mustParse(t, "avg s1[0,0 : 52,2] es {4,2}"), Reducers: 2},
	}
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, stages, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := firstValues(res.StageResults[0])
	omitted, several := 52*2-len(s1), 0
	for _, out := range res.StageResults[0].Outputs {
		for _, v := range out.Values {
			if len(v) > 1 {
				several++
			}
		}
	}
	if omitted == 0 || several == 0 {
		t.Fatalf("test premise broken: %d omitted keys, %d with several survivors", omitted, several)
	}
	want := map[string]float64{}
	coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(13, 1)).Each(func(kp coords.Coord) bool {
		var sum float64
		var n int
		coords.MustSlab(coords.NewCoord(kp[0]*4, 0), coords.NewShape(4, 2)).Each(func(k coords.Coord) bool {
			sum += s1[k.String()] // absent: 0
			n++
			return true
		})
		want[kp.String()] = sum / float64(n)
		return true
	})
	got := firstValues(res.Final)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Fatalf("key %s: got %v want %v", k, got[k], w)
		}
	}
}

// TestNoParkedDownstreamMaps pins that a downstream Map task whose
// upstream keyblocks have not committed is a counter, not a goroutine:
// with the upstream stage's last split gated inside its reader and every
// task not downstream of it settled, the gated Map is the only Map task
// running anywhere and nothing waits on a condition variable.
func TestNoParkedDownstreamMaps(t *testing.T) {
	stages := []Stage{
		{Query: mustParse(t, "avg temp[0,0 : 364,10] es {7,5}"), Reducers: 4},
		{Query: mustParse(t, "avg s1[0,0 : 52,2] es {1,2}"), Reducers: 2},
	}
	plans, upstream, err := plan(stages)
	if err != nil {
		t.Fatal(err)
	}
	// What the gate holds back: the upstream keyblocks reading the gated
	// split, the downstream splits reading those, their keyblocks.
	up, down := plans[0].Graph, plans[1].Graph
	gated := len(plans[0].Splits) - 1
	heldUp := map[int]bool{}
	for _, l := range up.SplitToKB[gated] {
		heldUp[l] = true
	}
	heldSplits, heldDown := map[int]bool{}, map[int]bool{}
	for s, kbs := range upstream[1].SplitToKB {
		for _, l := range kbs {
			if heldUp[l] {
				heldSplits[s] = true
				for _, dl := range down.SplitToKB[s] {
					heldDown[dl] = true
				}
			}
		}
	}
	if len(heldSplits) == 0 || len(heldSplits) == len(down.SplitToKB) || len(heldDown) == len(down.KBToSplits) {
		t.Fatalf("test premise broken: %d of %d downstream splits held, %d of %d keyblocks",
			len(heldSplits), len(down.SplitToKB), len(heldDown), len(down.KBToSplits))
	}
	want := [2][2]int{ // per stage: MapEnds, ReduceEnds
		{len(up.SplitToKB) - 1, len(up.KBToSplits) - len(heldUp)},
		{len(down.SplitToKB) - len(heldSplits), len(down.KBToSplits) - len(heldDown)},
	}

	var (
		mu      sync.Mutex
		seen    [2][2]int
		once    sync.Once
		settled = make(chan struct{})
		release = make(chan struct{})
	)
	onEvent := func(stage int, e mapreduce.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case mapreduce.MapEnd:
			seen[stage][0]++
		case mapreduce.ReduceEnd:
			seen[stage][1]++
		}
		if seen == want {
			once.Do(func() { close(settled) })
		}
	}
	gateRow := plans[0].Splits[gated].Slab.Corner[0]
	inner := &mapreduce.FuncReader{Fn: synth}
	gate := readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		if slab.Corner[0] >= gateRow {
			select {
			case <-release:
			case <-time.After(30 * time.Second):
				return nil, errors.New("gate never released")
			}
		}
		return inner.ReadSlabInto(slab, dst)
	})

	checked := make(chan error, 1)
	go func() {
		defer close(release)
		select {
		case <-settled:
		case <-time.After(30 * time.Second):
			checked <- errors.New("tasks not downstream of the gate never settled")
			return
		}
		// The last settled task may still be unwinding: wait until the
		// gated Map is the only one in runMap, then look for parked waits.
		deadline := time.Now().Add(5 * time.Second)
		for {
			stacks := goroutines()
			maps, conds := 0, 0
			for _, g := range stacks {
				if strings.Contains(g, "mapreduce.(*Job).runMap(") {
					maps++
				}
				if strings.Contains(g, "sync.(*Cond).Wait") &&
					(strings.Contains(g, "internal/pipeline") || strings.Contains(g, "internal/mapreduce")) {
					conds++
				}
			}
			if maps == 1 && conds == 0 {
				checked <- nil
				return
			}
			if time.Now().After(deadline) {
				checked <- fmt.Errorf("%d goroutines in runMap (want the gated one), %d parked in a cond wait:\n%s",
					maps, conds, strings.Join(stacks, "\n\n"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	res, err := Run(gate, stages, Options{OnEvent: onEvent})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, res.Final, sequential(t, &mapreduce.FuncReader{Fn: synth}, stages))
}

// goroutines returns every goroutine's stack.
func goroutines() []string {
	buf := make([]byte, 1<<20)
	return strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
}

func TestTwoStageMatchesSequentialComposition(t *testing.T) {
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, twoStage(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t)
	got := map[string]float64{}
	for _, out := range res.Final.Outputs {
		for i, k := range out.Keys {
			got[k.String()] = out.Values[i][0]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Fatalf("key %s: got %v want %v", k, got[k], w)
		}
	}
	if len(res.StageResults) != 2 || res.StageResults[0] == nil {
		t.Fatal("missing stage results")
	}
}

func TestSingleStagePipeline(t *testing.T) {
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, twoStage(t)[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final.Outputs) != 4 {
		t.Fatalf("%d outputs", len(res.Final.Outputs))
	}
	if res.OverlappedStarts != 0 {
		t.Fatal("single stage cannot overlap")
	}
}

func TestThreeStagePipeline(t *testing.T) {
	stages := append(twoStage(t), Stage{
		Query:    mustParse(t, "max s2[0,0 : 13,1] es {13,1}"),
		Reducers: 1,
	})
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, stages, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The final stage reduces everything to a single max value; verify
	// against the reference's max.
	want := math.Inf(-1)
	for _, v := range reference(t) {
		if v > want {
			want = v
		}
	}
	out := res.Final.Outputs[0]
	if len(out.Keys) != 1 || math.Abs(out.Values[0][0]-want) > 1e-9 {
		t.Fatalf("final = %v, want %v", out.Values, want)
	}
}

func TestStagesActuallyOverlap(t *testing.T) {
	// Structural proof of pipelining: stage 1's LAST split refuses to
	// proceed until stage 2 has COMMITTED its first keyblock. Stage 2's
	// keyblock 0 depends only on the front of stage 1's output, so an
	// overlapping pipeline completes; stages run back to back would
	// deadlock (tripping the 30 s timeout error instead).
	//
	// Stage 2 uses extraction {1,2}, so its keyblock 0 covers stage 1's
	// output rows 0-25 — stage 1 keyblocks 0-1, fed by input rows < 182,
	// well clear of the gated final split.
	stages := []Stage{
		{Query: mustParse(t, "avg temp[0,0 : 364,10] es {7,5}"), Reducers: 4},
		{Query: mustParse(t, "avg s1[0,0 : 52,2] es {1,2}"), Reducers: 2},
	}
	inner := &mapreduce.FuncReader{Fn: synth}
	stage2Committed := make(chan struct{})
	var once sync.Once

	// Gating on the last row band's corner isolates exactly the final
	// split: the stages share one pool, and on a 2-worker host two gated
	// Maps would hold every worker.
	plans, _, err := plan(stages)
	if err != nil {
		t.Fatal(err)
	}
	lastRow := plans[0].Splits[len(plans[0].Splits)-1].Slab.Corner[0]
	gate := readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		if slab.Corner[0] >= lastRow {
			select {
			case <-stage2Committed:
			case <-time.After(30 * time.Second):
				return nil, errors.New("pipeline never overlapped stages")
			}
		}
		return inner.ReadSlabInto(slab, dst)
	})
	res, err := Run(gate, stages, Options{
		OnEvent: func(stage int, e mapreduce.Event) {
			if stage == 1 && e.Kind == mapreduce.ReduceEnd {
				once.Do(func() { close(stage2Committed) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlappedStarts == 0 {
		t.Fatal("no downstream task started early despite forced overlap")
	}
	// Results must still be correct under the contrived interleaving:
	// each output key's value is the mean of its stage-1 {1,2} tile.
	s1 := stage1Reference(t)
	for _, out := range res.Final.Outputs {
		for i, k := range out.Keys {
			want := (s1[coords.NewCoord(k[0], 0).String()] + s1[coords.NewCoord(k[0], 1).String()]) / 2
			if math.Abs(out.Values[i][0]-want) > 1e-9 {
				t.Fatalf("key %v wrong under overlap", k)
			}
		}
	}
}

// stage1Reference computes stage 1's output directly.
func stage1Reference(t *testing.T) map[string]float64 {
	t.Helper()
	s1 := map[string]float64{}
	space := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(52, 2))
	space.Each(func(kp coords.Coord) bool {
		var sum float64
		var n int
		tile := coords.MustSlab(coords.NewCoord(kp[0]*7, kp[1]*5), coords.NewShape(7, 5))
		tile.Each(func(k coords.Coord) bool {
			sum += synth(k)
			n++
			return true
		})
		s1[kp.String()] = sum / float64(n)
		return true
	})
	return s1
}

type readerFunc func(coords.Slab, []float64) ([]float64, error)

func (f readerFunc) ReadSlabInto(s coords.Slab, dst []float64) ([]float64, error) {
	return f(s, dst)
}
