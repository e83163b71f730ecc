package pipeline

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"sidr/internal/coords"
	"sidr/internal/kv"
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
		var v kv.Value
		tile := coords.MustSlab(coords.NewCoord(kp[0]*7, kp[1]*5), coords.NewShape(7, 5))
		tile.Each(func(k coords.Coord) bool {
			v.Add(synth(k), false)
			return true
		})
		s1[kp.String()] = v.Mean()
		return true
	})
	// Stage 2.
	out := map[string]float64{}
	s2space := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(13, 1))
	s2space.Each(func(kp coords.Coord) bool {
		var v kv.Value
		tile := coords.MustSlab(coords.NewCoord(kp[0]*4, kp[1]*2), coords.NewShape(4, 2))
		tile.Each(func(k coords.Coord) bool {
			v.Add(s1[k.String()], false)
			return true
		})
		out[kp.String()] = v.Mean()
		return true
	})
	return out
}

func TestRunValidation(t *testing.T) {
	stages := twoStage(t)
	if _, err := Run(nil, stages); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, nil); err == nil {
		t.Fatal("no stages accepted")
	}
	bad := twoStage(t)
	bad[1].Reducers = 0
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, bad); err == nil {
		t.Fatal("zero reducers accepted")
	}
	mis := twoStage(t)
	mis[1].Query = mustParse(t, "avg s1[0,0 : 99,2] es {4,2}")
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, mis); err == nil {
		t.Fatal("mis-chained stages accepted")
	}
	noQ := twoStage(t)
	noQ[0].Query = nil
	if _, err := Run(&mapreduce.FuncReader{Fn: synth}, noQ); err == nil {
		t.Fatal("nil stage query accepted")
	}
}

func TestTwoStageMatchesSequentialComposition(t *testing.T) {
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, twoStage(t))
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
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, twoStage(t)[:1])
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
	res, err := Run(&mapreduce.FuncReader{Fn: synth}, stages)
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

	// Stage 1's input {364, 10} is split into 8 row bands; the last
	// band starts at row 364 - ceil(364/8) + 1 or later — gating on
	// corner row >= 310 isolates exactly the final split.
	gate := readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
		if slab.Corner[0] >= 310 {
			select {
			case <-stage2Committed:
			case <-time.After(30 * time.Second):
				return nil, errors.New("pipeline never overlapped stages")
			}
		}
		return inner.ReadSlabInto(slab, dst)
	})
	res, err := RunWithOptions(gate, stages, Options{
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
		var v kv.Value
		tile := coords.MustSlab(coords.NewCoord(kp[0]*7, kp[1]*5), coords.NewShape(7, 5))
		tile.Each(func(k coords.Coord) bool {
			v.Add(synth(k), false)
			return true
		})
		s1[kp.String()] = v.Mean()
		return true
	})
	return s1
}

type readerFunc func(coords.Slab, []float64) ([]float64, error)

func (f readerFunc) ReadSlabInto(s coords.Slab, dst []float64) ([]float64, error) {
	return f(s, dst)
}
