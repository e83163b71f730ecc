package mapreduce

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sidr/internal/depgraph"
)

// upstreamJob is the 64×8 avg job with Config.Upstream set from reads:
// split s's Map task reads the upstream keyblocks reads(s) returns.
func upstreamJob(t *testing.T, upstreamKBs int, reads func(s int) []int) (Config, map[string][]float64) {
	t.Helper()
	q := mustParse(t, "avg temp[0,0 : 64,8] es {4,4}")
	cfg := buildJob(t, q, 4, true, true)
	g, err := depgraph.New(len(cfg.Splits), upstreamKBs, func(s int, counts []int64) error {
		for _, l := range reads(s) {
			counts[l]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Upstream = g
	return cfg, referenceResults(t, q, synthValue)
}

func TestUpstreamCommittedBeforeRun(t *testing.T) {
	cfg, ref := upstreamJob(t, 3, func(s int) []int { return []int{s % 3, 2} })
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		j.UpstreamCommitted(l)
	}
	res, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	for s := range cfg.Splits {
		n := 0
		for _, e := range res.Events {
			if e.Kind == MapStart && e.Detail == s {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("map task %d ran %d times, want once", s, n)
		}
	}
	if want := int64(len(cfg.Splits) + cfg.Part.NumKeyblocks()); res.Counters.TasksDispatched != want {
		t.Fatalf("dispatched %d tasks, want %d", res.Counters.TasksDispatched, want)
	}
}

func TestUpstreamCancelledWhileAwaiting(t *testing.T) {
	// Split 0 is free and runs; the rest wait on an upstream keyblock that
	// never commits, so the job is idle with Maps outstanding when the
	// context goes.
	cfg, _ := upstreamJob(t, 1, func(s int) []int {
		if s == 0 {
			return nil
		}
		return []int{0}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(cfg)
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestUpstreamFreeSplitRunsAtStart(t *testing.T) {
	// Split 0 reads no upstream keyblock: it must run at start, before the
	// one upstream commit the other splits wait for is reported.
	cfg, ref := upstreamJob(t, 1, func(s int) []int {
		if s == 0 {
			return nil
		}
		return []int{0}
	})
	var starts atomic.Int64
	free := make(chan struct{})
	cfg.OnEvent = func(e Event) {
		if e.Kind == MapStart {
			starts.Add(1)
		}
		if e.Kind == MapEnd && e.Detail == 0 {
			close(free)
		}
	}
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := j.Run()
		done <- outcome{res, err}
	}()
	select {
	case <-free:
	case <-time.After(10 * time.Second):
		t.Fatal("the split reading no upstream keyblock never ran")
	}
	if n := starts.Load(); n != 1 {
		t.Fatalf("%d Map tasks started before the upstream commit, want only split 0", n)
	}
	j.UpstreamCommitted(0)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkAgainstReference(t, out.res, ref)
}

func TestUpstreamWithoutDepsMatchesNil(t *testing.T) {
	// An Upstream graph under which no split reads anything is the nil
	// case: on one worker the dispatch is a function of the graph, so the
	// event sequence and the dispatched task count must be identical.
	trace := func(upstream bool) ([]Event, int64) {
		cfg, ref := upstreamJob(t, 2, func(int) []int { return nil })
		if !upstream {
			cfg.Upstream = nil
		}
		cfg.Workers = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, res, ref)
		return res.Events, res.Counters.TasksDispatched
	}
	nilEvents, nilTasks := trace(false)
	upEvents, upTasks := trace(true)
	same := slices.EqualFunc(nilEvents, upEvents, func(a, b Event) bool { return a.Kind == b.Kind && a.Detail == b.Detail })
	if !same || nilTasks != upTasks {
		t.Fatalf("Upstream without dependencies changed the run: %d vs %d tasks, events equal %v", nilTasks, upTasks, same)
	}
}

func TestUpstreamGraphMustCoverSplits(t *testing.T) {
	cfg, _ := upstreamJob(t, 1, func(int) []int { return nil })
	short, err := depgraph.New(len(cfg.Splits)-1, 1, func(int, []int64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cfg.Upstream = short
	if _, err := NewJob(cfg); err == nil || !strings.Contains(err.Error(), "upstream") {
		t.Fatalf("NewJob accepted an upstream graph over the wrong split count: %v", err)
	}
}
