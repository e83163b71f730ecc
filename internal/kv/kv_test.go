package kv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
)

func TestNewValue(t *testing.T) {
	v := NewValue(3, false)
	if v.Count != 1 || v.Sum != 3 || v.Min != 3 || v.Max != 3 || v.SumSq != 9 {
		t.Fatalf("NewValue = %+v", v)
	}
	if v.Samples != nil {
		t.Fatal("samples kept when not requested")
	}
	s := NewValue(3, true)
	if len(s.Samples) != 1 || s.Samples[0] != 3 {
		t.Fatalf("samples = %v", s.Samples)
	}
}

func TestValueAdd(t *testing.T) {
	var v Value
	for _, x := range []float64{5, -2, 9, 0} {
		v.Add(x, true)
	}
	if v.Count != 4 || v.Sum != 12 || v.Min != -2 || v.Max != 9 {
		t.Fatalf("Add = %+v", v)
	}
	if len(v.Samples) != 4 {
		t.Fatalf("samples = %v", v.Samples)
	}
}

// TestAddRunIsRepeatedAdd: folding a run is bit-identical to adding its
// observations one at a time — NaN, +Inf and signed zeros included, into
// an empty value and into one already holding data. (Infinities of both
// signs are left out: Inf − Inf mints a second NaN payload, and which
// payload a NaN + NaN keeps is the compiler's operand order, not the
// fold order.)
func TestAddRunIsRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), 0}
	for iter := 0; iter < 500; iter++ {
		xs := make([]float64, rng.Intn(20))
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			if rng.Intn(9) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
		cut, keep := rng.Intn(len(xs)+1), iter%2 == 0
		var one, run Value
		for _, x := range xs {
			one.Add(x, keep)
		}
		run.AddRun(xs[:cut], keep)
		run.AddRun(xs[cut:], keep)
		same := math.Float64bits(one.Sum) == math.Float64bits(run.Sum) &&
			math.Float64bits(one.SumSq) == math.Float64bits(run.SumSq) &&
			math.Float64bits(one.Min) == math.Float64bits(run.Min) &&
			math.Float64bits(one.Max) == math.Float64bits(run.Max) &&
			one.Count == run.Count && len(one.Samples) == len(run.Samples) && (one.Samples == nil) == (run.Samples == nil)
		for i := 0; same && i < len(one.Samples); i++ {
			same = math.Float64bits(one.Samples[i]) == math.Float64bits(run.Samples[i])
		}
		if !same {
			t.Fatalf("xs %v cut %d: Add %+v, AddRun %+v", xs, cut, one, run)
		}
	}
}

func TestValueMerge(t *testing.T) {
	a := NewValue(1, true)
	a.Add(2, true)
	b := NewValue(10, true)
	b.Add(-5, true)
	a.Merge(b)
	if a.Count != 4 || a.Sum != 8 || a.Min != -5 || a.Max != 10 {
		t.Fatalf("Merge = %+v", a)
	}
	if len(a.Samples) != 4 {
		t.Fatalf("samples = %v", a.Samples)
	}
	// Merging an empty value is a no-op.
	before := a.Clone()
	a.Merge(Value{})
	if a.Count != before.Count || a.Sum != before.Sum {
		t.Fatalf("empty merge changed value: %+v", a)
	}
	// Merging into an empty value copies min/max.
	var e Value
	e.Merge(b)
	if e.Min != -5 || e.Max != 10 || e.Count != 2 {
		t.Fatalf("merge into empty = %+v", e)
	}
}

func TestMeanStdDev(t *testing.T) {
	var v Value
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		v.Add(x, false)
	}
	if v.Mean() != 5 {
		t.Fatalf("Mean = %v", v.Mean())
	}
	if math.Abs(v.StdDev()-2) > 1e-12 {
		t.Fatalf("StdDev = %v", v.StdDev())
	}
	var empty Value
	if empty.Mean() != 0 || empty.StdDev() != 0 {
		t.Fatal("empty value stats nonzero")
	}
}

func TestCloneIndependence(t *testing.T) {
	var v Value
	v.Add(1, true)
	c := v.Clone()
	c.Add(2, true)
	if len(v.Samples) != 1 {
		t.Fatal("clone shares samples")
	}
}

func TestApproxBytes(t *testing.T) {
	var v Value
	if v.ApproxBytes() != 40 {
		t.Fatalf("empty ApproxBytes = %d", v.ApproxBytes())
	}
	v.Add(1, true)
	if v.ApproxBytes() != 48 {
		t.Fatalf("ApproxBytes = %d", v.ApproxBytes())
	}
}

func TestSortMergePairs(t *testing.T) {
	ps := []Pair{
		{Key: coords.NewCoord(1, 0), Value: NewValue(10, false)},
		{Key: coords.NewCoord(0, 1), Value: NewValue(1, false)},
		{Key: coords.NewCoord(0, 1), Value: NewValue(2, false)},
		{Key: coords.NewCoord(0, 0), Value: NewValue(5, false)},
	}
	SortPairs(ps)
	if !ps[0].Key.Equal(coords.NewCoord(0, 0)) || !ps[3].Key.Equal(coords.NewCoord(1, 0)) {
		t.Fatalf("sort order wrong: %v", ps)
	}
	merged := MergeSorted([][]Pair{ps})
	if len(merged) != 3 {
		t.Fatalf("merged to %d pairs, want 3", len(merged))
	}
	if merged[1].Value.Count != 2 || merged[1].Value.Sum != 3 {
		t.Fatalf("merged middle = %+v", merged[1].Value)
	}
}

// TestQuickMergeEquivalentToAdds: merging values built from disjoint
// sample sets equals folding all samples into one value — the combiner
// correctness invariant.
func TestQuickMergeEquivalentToAdds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		cut := r.Intn(n)
		var a, b, all Value
		for i, x := range xs {
			if i < cut {
				a.Add(x, true)
			} else {
				b.Add(x, true)
			}
			all.Add(x, true)
		}
		a.Merge(b)
		return a.Count == all.Count &&
			math.Abs(a.Sum-all.Sum) < 1e-9 &&
			a.Min == all.Min && a.Max == all.Max &&
			len(a.Samples) == len(all.Samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountAnnotationAdditive: the Count annotation is additive
// under any merge tree — the property the Reduce barrier tally relies on.
func TestQuickCountAnnotationAdditive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		vals := make([]Value, n)
		var total int64
		for i := range vals {
			k := 1 + r.Intn(5)
			for j := 0; j < k; j++ {
				vals[i].Add(r.Float64(), false)
			}
			total += int64(k)
		}
		// Merge in random order.
		for len(vals) > 1 {
			i := r.Intn(len(vals) - 1)
			vals[i].Merge(vals[i+1])
			vals = append(vals[:i+1], vals[i+2:]...)
		}
		return vals[0].Count == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
