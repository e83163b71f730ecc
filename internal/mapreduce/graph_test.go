package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/exec"
)

// TestNoBarrierParkedGoroutines pins the refactor's core property: a
// Reduce task whose dependencies are unmet occupies no goroutine and no
// executor slot — readiness is a counter decremented on Map completion,
// not a condition variable being awaited. The last split's Map task is
// gated inside its reader; once every other task has settled, the only
// live task in the whole engine is that gated Map, and no goroutine is
// parked in a mapreduce condition wait.
func TestNoBarrierParkedGoroutines(t *testing.T) {
	q := mustParse(t, "avg temp[0,0 : 64,8] es {4,4}")
	cfg := buildJob(t, q, 4, true, true)
	ref := referenceResults(t, q, synthValue)
	lastSplit := cfg.Splits[len(cfg.Splits)-1].Slab

	// Keyblocks not depending on the last split must all commit before
	// the stack check; the rest must still be waiting (as counters).
	last := len(cfg.Splits) - 1
	wantEarly := 0
	dependsOnLast := make(map[int]bool)
	for l := range cfg.Graph.KBToSplits {
		for _, s := range cfg.Graph.KBToSplits[l] {
			if s == last {
				dependsOnLast[l] = true
			}
		}
		if !dependsOnLast[l] {
			wantEarly++
		}
	}
	if wantEarly == 0 || len(dependsOnLast) == 0 {
		t.Fatal("test premise broken: need both early and gated keyblocks")
	}

	ex := exec.New(4)
	defer ex.Close()
	cfg.Exec = ex

	var mu sync.Mutex
	mapEnds, earlyEnds := 0, 0
	settled := make(chan struct{})
	settledOnce := sync.Once{}
	cfg.OnEvent = func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case e.Kind == MapEnd:
			mapEnds++
		case e.Kind == ReduceEnd && !dependsOnLast[e.Detail]:
			earlyEnds++
		}
		if mapEnds == last && earlyEnds == wantEarly {
			settledOnce.Do(func() { close(settled) })
		}
	}

	release := make(chan struct{})
	inner := &FuncReader{Fn: synthValue}
	cfg.Reader = readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		if slab.Corner.Equal(lastSplit.Corner) {
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
		select {
		case <-settled:
		case <-time.After(30 * time.Second):
			checked <- errors.New("early keyblocks never settled")
			close(release)
			return
		}
		// Let the final early Reduce fn unwind, then the engine must be
		// quiescent: one Running task (the gated Map), nothing queued —
		// the unmet Reduce tasks exist only as dependency counters.
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := ex.Stats()
			if s.Running == 1 && s.Queued == 0 {
				break
			}
			if time.Now().After(deadline) {
				checked <- fmt.Errorf("engine never quiesced at the gate: %+v", s)
				close(release)
				return
			}
			time.Sleep(time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "internal/mapreduce") {
				checked <- fmt.Errorf("goroutine parked in a mapreduce cond wait:\n%s", g)
				close(release)
				return
			}
		}
		checked <- nil
		close(release)
	}()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	wantTasks := int64(len(cfg.Splits) + len(cfg.Graph.KBToSplits))
	if res.Counters.TasksDispatched != wantTasks {
		t.Fatalf("dispatched %d tasks, want %d", res.Counters.TasksDispatched, wantTasks)
	}
}

// TestGlobalBarrierDeterministic asserts the global-barrier path's output
// is byte-identical run to run and across worker counts — the seed
// engine's behaviour, preserved through the task-graph refactor.
func TestGlobalBarrierDeterministic(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	ref := referenceResults(t, q, synthValue)
	render := func(workers int) string {
		cfg := buildJob(t, q, 3, false, true)
		cfg.Barrier = globalBarrier
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, res, ref)
		var b strings.Builder
		for _, out := range res.Outputs {
			fmt.Fprintf(&b, "kb=%d\n", out.Keyblock)
			for i, k := range out.Keys {
				fmt.Fprintf(&b, "%v=%v\n", k, out.Values[i])
			}
		}
		return b.String()
	}
	serial := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != serial {
			t.Fatalf("global-barrier output differs between 1 and %d workers:\n%s\nvs\n%s", w, serial, got)
		}
	}
	if serial == "" {
		t.Fatal("rendered output empty")
	}
}
