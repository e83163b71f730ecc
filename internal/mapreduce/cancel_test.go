package mapreduce

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// slowReader wraps FuncReader with a per-point delay so a run is slow
// enough to cancel mid-flight.
type slowReader struct {
	inner FuncReader
	delay time.Duration
}

func (r *slowReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	time.Sleep(r.delay * time.Duration(slab.Size()))
	return r.inner.ReadSlabInto(slab, dst)
}

func cancelConfig(t *testing.T, barrier barrierMode) Config {
	t.Helper()
	q, err := query.Parse("avg v[0,0 : 64,64] es {8,8}")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := GenerateSplits(q.Input, 512, nil, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(q, Slabs(splits), pp)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Query:   q,
		Splits:  splits,
		Reader:  &slowReader{inner: FuncReader{Fn: func(k coords.Coord) float64 { return float64(k[0]) }}, delay: 200 * time.Microsecond},
		Part:    pp,
		Graph:   g,
		Barrier: barrier,
	}
}

func TestRunCancelled(t *testing.T) {
	for _, barrier := range []barrierMode{globalBarrier, DependencyBarrier} {
		t.Run(barrier.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := cancelConfig(t, barrier)
			ctx, cancel := context.WithCancel(context.Background())
			cfg.Ctx = ctx
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := Run(cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v, want prompt abort", elapsed)
			}
			// All worker goroutines must have exited.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	cfg := cancelConfig(t, DependencyBarrier)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

func TestRunNilContextUnchanged(t *testing.T) {
	cfg := cancelConfig(t, DependencyBarrier)
	cfg.Reader = &FuncReader{Fn: func(k coords.Coord) float64 { return float64(k[0]) }}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("got %d outputs, want 4", len(res.Outputs))
	}
}
