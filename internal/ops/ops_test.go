package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
	"sidr/internal/kv"
)

// addPoint folds one observation into v, every statistic included: the
// per-point definition of each statistic, which the Map kernel's
// kv.Value.AddRun must reproduce bit for bit.
func addPoint(v *kv.Value, x float64, keepSample bool) {
	if v.Count == 0 {
		v.Min, v.Max = x, x
	} else {
		if x < v.Min {
			v.Min = x
		}
		if x > v.Max {
			v.Max = x
		}
	}
	v.Sum += x
	v.SumSq += x * x
	v.Count++
	if keepSample {
		v.Samples = append(v.Samples, x)
	}
}

func valueOf(samples bool, xs ...float64) kv.Value {
	var v kv.Value
	for _, x := range xs {
		addPoint(&v, x, samples)
	}
	return v
}

func apply(t *testing.T, name string, param float64, xs ...float64) []float64 {
	t.Helper()
	op, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return op.Apply(valueOf(op.NeedsSamples(), xs...), param)
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("frobnicate"); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names not sorted: %v", names)
	}
	want := []string{"absmax", "avg", "count", "filter_gt", "filter_lt", "filter_range", "max", "median", "min", "percentile", "range", "sort", "stddev", "sum"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestRangeAbsmax(t *testing.T) {
	if got := apply(t, "range", 0, 4, -1, 7, 2); got[0] != 8 {
		t.Fatalf("range = %v", got)
	}
	op, _ := Lookup("range")
	if got := op.Apply(kv.Value{}, 0); got[0] != 0 {
		t.Fatalf("empty range = %v", got)
	}
	if got := apply(t, "absmax", 0, -9, 3); got[0] != 9 {
		t.Fatalf("absmax = %v", got)
	}
	if got := apply(t, "absmax", 0, -2, 7); got[0] != 7 {
		t.Fatalf("absmax = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7} // sorted: 1 3 5 7 9
	cases := map[float64]float64{0: 1, 20: 1, 50: 5, 100: 9, 150: 9, -5: 1}
	for p, want := range cases {
		if got := apply(t, "percentile", p, xs...); got[0] != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	op, _ := Lookup("percentile")
	if got := op.Apply(kv.Value{}, 50); got[0] != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Median equivalence for odd sample counts.
	if apply(t, "percentile", 50, xs...)[0] != apply(t, "median", 0, xs...)[0] {
		t.Fatal("percentile(50) != median on odd count")
	}
}

func TestDistributiveOps(t *testing.T) {
	xs := []float64{4, -1, 7, 2}
	cases := map[string]float64{
		"sum":   12,
		"count": 4,
		"avg":   3,
		"min":   -1,
		"max":   7,
	}
	for name, want := range cases {
		got := apply(t, name, 0, xs...)
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	sd := apply(t, "stddev", 0, 2, 4, 4, 4, 5, 5, 7, 9)
	if math.Abs(sd[0]-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", sd)
	}
}

func TestMedian(t *testing.T) {
	if got := apply(t, "median", 0, 5, 1, 9); got[0] != 5 {
		t.Fatalf("odd median = %v", got)
	}
	if got := apply(t, "median", 0, 1, 2, 3, 4); got[0] != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	op, _ := Lookup("median")
	if got := op.Apply(kv.Value{}, 0); got[0] != 0 {
		t.Fatalf("empty median = %v", got)
	}
}

func TestSortOp(t *testing.T) {
	got := apply(t, "sort", 0, 3, 1, 2)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort = %v", got)
		}
	}
}

func TestFilters(t *testing.T) {
	// Survivors come out in the order the key's samples hold them.
	gt := apply(t, "filter_gt", 5, 1, 9, 5, 6)
	if len(gt) != 2 || gt[0] != 9 || gt[1] != 6 {
		t.Fatalf("filter_gt = %v, want [9 6]", gt)
	}
	lt := apply(t, "filter_lt", 5, 1, 9, 5, 6)
	if len(lt) != 1 || lt[0] != 1 {
		t.Fatalf("filter_lt = %v", lt)
	}
	if got := apply(t, "filter_gt", 100, 1, 2); len(got) != 0 {
		t.Fatalf("filter_gt none = %v", got)
	}
}

func TestFilterRange(t *testing.T) {
	op, err := Lookup("filter_range")
	if err != nil {
		t.Fatal(err)
	}
	// Bounds are inclusive and survivors keep their source order.
	got := op.Apply(valueOf(true, 9, 2, 5, 3, 7), 3, 7)
	want := []float64{5, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("filter_range = %v, want %v", got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("filter_range = %v, want %v", got, want)
		}
	}
	if got := op.Apply(valueOf(true, 1, 9), 3, 7); len(got) != 0 {
		t.Fatalf("filter_range none = %v", got)
	}
	if op.Kind() != Filter {
		t.Fatal("filter_range is not Filter-kind")
	}
	if NumParams(op) != 2 {
		t.Fatalf("filter_range NumParams = %d", NumParams(op))
	}
}

func TestPrunePredicates(t *testing.T) {
	cases := []struct {
		name     string
		params   []float64
		min, max float64
		keep     bool
	}{
		// filter_gt p keeps a block iff max > p.
		{"filter_gt", []float64{10}, 0, 11, true},
		{"filter_gt", []float64{10}, 0, 10, false},
		// filter_lt p keeps a block iff min < p.
		{"filter_lt", []float64{10}, 9, 20, true},
		{"filter_lt", []float64{10}, 10, 20, false},
		// filter_range lo,hi keeps a block iff [min,max] ∩ [lo,hi] ≠ ∅.
		{"filter_range", []float64{3, 7}, 7, 9, true},
		{"filter_range", []float64{3, 7}, 8, 9, false},
		{"filter_range", []float64{3, 7}, 0, 2, false},
		{"filter_range", []float64{3, 7}, 0, 100, true},
	}
	for _, c := range cases {
		op, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		keep, ok := PrunePredicate(op, c.params...)
		if !ok {
			t.Fatalf("%s has no prune predicate", c.name)
		}
		if got := keep(c.min, c.max); got != c.keep {
			t.Fatalf("%s%v keep(%g, %g) = %v, want %v", c.name, c.params, c.min, c.max, got, c.keep)
		}
	}
	// Aggregates are not prunable: no value predicate to test blocks
	// against.
	for _, name := range []string{"avg", "sum", "median", "percentile"} {
		op, _ := Lookup(name)
		if _, ok := PrunePredicate(op, 1); ok {
			t.Fatalf("%s unexpectedly prunable", name)
		}
	}
}

func TestKinds(t *testing.T) {
	kinds := map[string]opKind{
		"sum": distributive, "avg": distributive, "stddev": distributive,
		"median": Holistic, "sort": Holistic,
		"filter_gt": Filter, "filter_lt": Filter,
	}
	for name, want := range kinds {
		op, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if op.Kind() != want {
			t.Errorf("%s kind = %v, want %v", name, op.Kind(), want)
		}
	}
	if distributive.String() != "distributive" || Holistic.String() != "holistic" || Filter.String() != "filter" {
		t.Fatal("opKind names changed")
	}
}

func TestNeedsSamples(t *testing.T) {
	for _, name := range []string{"median", "sort", "filter_gt", "percentile"} {
		op, _ := Lookup(name)
		if !op.NeedsSamples() {
			t.Errorf("%s should need samples", name)
		}
	}
	for _, name := range []string{"sum", "avg", "min", "max", "count", "stddev", "range", "absmax"} {
		op, _ := Lookup(name)
		if op.NeedsSamples() {
			t.Errorf("%s should not need samples", name)
		}
	}
}

// TestFilterSurvivors: a filter's selection loop appends the values its
// predicate keeps, run after run, in source order into the capacity it is
// given, and they stay in that order; operators that are not filters
// have no selection loop, and filters declare no statistic (the Map
// kernel folds none over survivors).
func TestFilterSurvivors(t *testing.T) {
	flt, _ := Lookup("filter_gt")
	sel, ok := Selector(flt, 5)
	if !ok {
		t.Fatal("filter_gt has no selection loop")
	}
	dst := make([]float64, 0, 4)
	dst = sel(dst, []float64{1, 9})
	dst = sel(dst, []float64{5, 6})
	if len(dst) != 2 || dst[0] != 9 || dst[1] != 6 || cap(dst) != 4 {
		t.Fatalf("survivors = %v (cap %d), want [9 6] in the window of 4", dst, cap(dst))
	}
	if got := flt.Apply(kv.Value{Samples: []float64{1, 9, 5, 6}}, 5); !slices.Equal(got, []float64{9, 6}) {
		t.Fatalf("Apply survivors = %v, want [9 6]", got)
	}
	sel, _ = Selector(flt, 100)
	if none := sel(make([]float64, 0, 4), []float64{1, 9, 5, 6}); len(none) != 0 {
		t.Fatalf("survivors over the threshold = %v, want none", none)
	}
	sum, _ := Lookup("sum")
	if _, ok := Selector(sum, 5); ok {
		t.Fatal("sum has a selection loop")
	}
	for _, name := range Names() {
		if op, _ := Lookup(name); op.Kind() == Filter && op.Stats() != 0 {
			t.Errorf("filter %s declares statistics %v", name, op.Stats())
		}
	}
}

// preFiltered is what a Map task ships for one key under a filter with
// the combiner on: the key's survivors, in source order, and Count the
// source points. A filter declares no statistic, so none is folded.
func preFiltered(op Operator, v kv.Value, params ...float64) kv.Value {
	sel, _ := Selector(op, params...)
	kept := sel(make([]float64, 0, len(v.Samples)), v.Samples)
	return kv.Value{Samples: kept, Count: v.Count}
}

// refSurvivors is the definition a filter's survivors follow: the values
// its predicate keeps, by a plain loop, in the order they come.
func refSurvivors(name string, xs []float64, p, p2 float64) []float64 {
	keep := map[string]func(float64) bool{
		"filter_gt":    func(x float64) bool { return x > p },
		"filter_lt":    func(x float64) bool { return x < p },
		"filter_range": func(x float64) bool { return x >= p && x <= p2 },
	}[name]
	var out []float64
	for _, x := range xs {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}

// FuzzFilterSurvivors holds the Map kernel's fold-time selection — each
// filter's loop run over consecutive runs — and Apply's partition against
// refSurvivors, by Float64bits and in source order. Bytes pick the filter,
// its parameters off the palette (equal bounds and reversed bounds
// included), the run length, and the values: ±0, ±Inf, NaN, subnormals
// and values equal to a parameter.
func FuzzFilterSurvivors(f *testing.F) {
	f.Add([]byte{0, 8, 0, 3, 8, 9, 200, 3, 4, 1, 2, 0})
	f.Add([]byte{1, 4, 0, 1, 3, 4, 4, 3, 0, 1, 2, 5, 6, 7})
	f.Add([]byte{2, 4, 4, 2, 3, 4, 0, 1, 200, 4, 3})
	f.Add([]byte{2, 9, 11, 5, 9, 10, 11, 8, 0, 1, 2, 3, 4, 5, 6, 7})
	// −0 and +0 among many survivors: each keeps its place and its bits.
	mixed := []byte{1, 8, 0, 7}
	for i := 0; i < 24; i++ {
		mixed = append(mixed, []byte{4, 3, byte(100 - i)}[i%3])
	}
	f.Add(mixed)
	long := []byte{1, 250, 0, 9}
	for i := 0; i < 120; i++ {
		long = append(long, byte(i*37))
	}
	f.Add(long)
	names := []string{"filter_gt", "filter_lt", "filter_range"}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 || len(b) > 300 {
			return
		}
		name := names[int(b[0])%len(names)]
		p, p2 := paletteValue(b[1], nil), paletteValue(b[2], nil)
		if name != "filter_range" {
			p2 = 0
		}
		if p != p || p2 != p2 {
			return // queries reject NaN parameters
		}
		runLen := int(b[3])%9 + 1
		xs := make([]float64, len(b)-4)
		for i, c := range b[4:] {
			xs[i] = paletteValue(c, nil)
		}
		op, _ := Lookup(name)
		sel, _ := Selector(op, p, p2)
		got := make([]float64, 0, len(xs))
		for run := xs; len(run) > 0; {
			n := min(runLen, len(run))
			got = sel(got, run[:n])
			run = run[n:]
		}
		handed := append([]float64(nil), xs...)
		applied := op.Apply(kv.Value{Samples: handed}, p, p2)
		// Apply reorders the samples it is handed but keeps their values:
		// a Reduce hands it a window of a stream it reads in place.
		if !slices.Equal(sortedBits(handed), sortedBits(xs)) {
			t.Fatalf("%s %g,%g over %v: Apply left the samples holding %v", name, p, p2, xs, handed)
		}
		for which, want := range map[string][]float64{"refSurvivors": refSurvivors(name, xs, p, p2), "Apply": applied} {
			if len(got) != len(want) {
				t.Fatalf("%s %g,%g over %v: %d survivors, %s %d", name, p, p2, xs, len(got), which, len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %g,%g over %v: survivors %v, %s %v", name, p, p2, xs, got, which, want)
				}
			}
		}
	})
}

// sortedBits returns xs' Float64bits in ascending order: its multiset.
func sortedBits(xs []float64) []uint64 {
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	slices.Sort(bits)
	return bits
}

// sortedOracle is the definition median and percentile had before they
// selected: sort a copy with sort.Float64s and read the order statistic.
func sortedOracle(name string, p float64, xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if name == "median" {
		if len(s)%2 == 1 {
			return s[len(s)/2]
		}
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	p = math.Max(0, math.Min(p, 100))
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return s[rank-1]
}

var selectPercentiles = []float64{0, 1, 37.5, 50, 99, 100}

// checkSelect holds median and every percentile of selectPercentiles over
// xs against sortedOracle by Float64bits, and checks that Apply leaves
// the samples it reordered holding xs's multiset of bit patterns. The
// exceptions are the ties sort.Float64s leaves open: when xs holds both
// −0 and +0, which of the two ends up at a tied rank, and when it holds
// NaNs of more than one bit pattern, which of those does.
func checkSelect(t *testing.T, xs []float64) {
	t.Helper()
	var negZero, posZero bool
	nans := map[uint64]bool{}
	for _, x := range xs {
		negZero = negZero || (x == 0 && math.Signbit(x))
		posZero = posZero || (x == 0 && !math.Signbit(x))
		if x != x {
			nans[math.Float64bits(x)] = true
		}
	}
	check := func(name string, p float64) {
		op, _ := Lookup(name)
		v := kv.Value{Samples: append([]float64(nil), xs...)}
		got, want := op.Apply(v, p)[0], sortedOracle(name, p, xs)
		if !slices.Equal(sortedBits(v.Samples), sortedBits(xs)) {
			t.Fatalf("%s param %g over %d samples %v: Apply left %v", name, p, len(xs), xs, v.Samples)
		}
		if math.Float64bits(got) == math.Float64bits(want) || (negZero && posZero && got == 0 && want == 0) ||
			(len(nans) > 1 && got != got && want != want) {
			return
		}
		t.Fatalf("%s param %g over %d samples %v: got %v (%#x), sort.Float64s gives %v (%#x)",
			name, p, len(xs), xs, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	check("median", 0)
	for _, p := range selectPercentiles {
		check("percentile", p)
	}
}

// selectPalette spells the values the selection must order exactly as
// sort.Float64s: NaN, ±Inf, ±0, subnormals and a few small integers that
// repeat. Anything else a byte names is a full-mantissa value.
var selectPalette = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -5e-324, 1e-310, 1, 1, 2, -3}

func paletteValue(b byte, r *rand.Rand) float64 {
	if int(b) < len(selectPalette) {
		return selectPalette[b]
	}
	if r != nil {
		return r.NormFloat64() * 1e3
	}
	return (float64(b) - 128) * 1.25
}

// TestSelectMatchesSort: median and percentile select in place, and what
// they select is what a full sort.Float64s puts at that rank, over slices
// of 0–300 samples mixing every special value with duplicates.
func TestSelectMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, r.Intn(301))
		special := 1 + r.Intn(4) // one in `special` samples comes off the palette
		for i := range xs {
			b := byte(255)
			if r.Intn(special) == 0 {
				b = byte(r.Intn(len(selectPalette)))
			}
			xs[i] = paletteValue(b, r)
		}
		checkSelect(t, xs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Shapes that decide a quickselect's path: sorted, reversed, all
	// equal, all NaN, and the small ranges it finishes by insertion.
	for n := 0; n <= 40; n++ {
		up, down, same, nan := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range up {
			up[i], down[i], same[i], nan[i] = float64(i), float64(n-i), 7, math.NaN()
		}
		for _, xs := range [][]float64{up, down, same, nan} {
			checkSelect(t, xs)
		}
	}
	// McIlroy's adversary ("A Killer Adversary for Quicksort"), run
	// against the median-of-three pivot rule for the median of 48, built
	// this input: every pivot is nearly extreme, the quickselect runs out
	// of its budget, and the sort it falls back to finishes.
	killer := []float64{0, 24, 2, 25, 4, 26, 6, 27, 8, 28, 10, 29, 12, 30, 14, 31, 16, 32, 18, 33, 20, 34, 22,
		3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 1}
	checkSelect(t, killer)
}

// TestSelectOrdersNegativeZeroFirst pins the tie sort.Float64s leaves
// open: the selection orders −0 before +0, through Finisher and Apply
// alike. The samples are values on both sides of the sign bit, once (the
// insertion tail alone) and four times over (the partition too), and
// behind two NaNs; every rank is read from several input orders, +0
// first among them.
func TestSelectOrdersNegativeZeroFirst(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	signed := []float64{math.Inf(-1), -math.MaxFloat64, -5e-324, negZero, 0, 5e-324, math.MaxFloat64, math.Inf(1)}
	repeat := func(copies int, head ...float64) []float64 {
		out := head
		for _, x := range signed {
			for c := 0; c < copies; c++ {
				out = append(out, x)
			}
		}
		return out
	}
	r := rand.New(rand.NewSource(53))
	for _, sorted := range [][]float64{repeat(1), repeat(4), repeat(1, nan, nan), repeat(4, nan, nan)} {
		n := len(sorted)
		orders := [][]float64{slices.Clone(sorted)}
		slices.Reverse(orders[0]) // +0 before −0
		for i := 0; i < 4; i++ {
			xs := slices.Clone(sorted)
			r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			orders = append(orders, xs)
		}
		check := func(name string, p float64, xs []float64, want float64) {
			t.Helper()
			op, _ := Lookup(name)
			finish, _ := Finisher(op, p)
			got := finish(slices.Clone(xs))
			applied := op.Apply(kv.Value{Samples: slices.Clone(xs)}, p)[0]
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(applied) != math.Float64bits(want) {
				t.Fatalf("%s param %g over %v: Finisher %v, Apply %v, want %v", name, p, xs, got, applied, want)
			}
		}
		for _, xs := range orders {
			for rank := 1; rank <= n; rank++ {
				check("percentile", 100*(float64(rank)-0.5)/float64(n), xs, sorted[rank-1])
			}
			check("median", 0, xs, (sorted[n/2-1]+sorted[n/2])/2)
		}
	}
	// The odd median of the NaN-first samples NaN, NaN, −0, −0, +0: −0.
	op, _ := Lookup("median")
	finish, _ := Finisher(op)
	if got := finish([]float64{0, nan, negZero, negZero, nan}); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Fatalf("median of NaN, NaN, −0, −0, +0 = %v, want −0", got)
	}
}

// TestSelectGathersDuplicates: a key whose samples are mostly one value
// is selected by the gather pass, without the sort fallback. The samples
// are 2 990 copies of 5 and ten larger values in descending order, none
// where the median-of-three pivot is taken (first, middle, last), nor
// where a pass could move it there: every pivot is 5. The first pass
// finds no key below it, the gather collects every 5, the median lies
// among them and the selection ends, the larger values still out of
// order. Were the keys equal to the pivot not gathered, no pass would
// shrink the range, and the budget would end in a sort of every sample.
func TestSelectGathersDuplicates(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 5
	}
	for i := 0; i < 10; i++ {
		xs[100+200*i] = float64(100 - i)
	}
	op, _ := Lookup("median")
	finish, _ := Finisher(op)
	if got := finish(xs); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if slices.IsSorted(xs) {
		t.Fatal("the selection sorted the samples: the keys equal to the pivot were not gathered")
	}
}

// FuzzSelect is TestSelectMatchesSort with the fuzzer choosing the
// samples. Unless raw is set, each byte is a palette value or a
// byte-derived number; with raw set, every 8 bytes are one float64's
// bits (little-endian), so every NaN payload, negative NaNs, both zeros
// and every subnormal can occur. The seeds past the first four hold
// 9–70 samples, so the partition runs on them, not only the insertion
// tail.
func FuzzSelect(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(false, []byte{0, 1, 2, 3, 4})
	f.Add(false, []byte{3, 4, 3, 4, 200, 3})
	f.Add(false, []byte{5, 6, 7, 8, 8, 9, 10, 11, 250, 12, 0, 0})
	special := []uint64{0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000000, 0x7fffffffffffffff,
		0x8000000000000000, 0, 1, 0x800fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000, 0x3ff0000000000000}
	r := rand.New(rand.NewSource(53))
	for _, n := range []int{9, 10, 17, 33, 64, 70} {
		pal, raw := make([]byte, n), make([]byte, 8*n)
		for i := range pal {
			pal[i] = byte(r.Intn(256))
			if r.Intn(2) == 0 {
				pal[i] = byte(r.Intn(len(selectPalette)))
			}
			bits := r.Uint64()
			if r.Intn(2) == 0 {
				bits = special[r.Intn(len(special))]
			}
			binary.LittleEndian.PutUint64(raw[8*i:], bits)
		}
		f.Add(false, pal)
		f.Add(true, raw)
	}
	f.Fuzz(func(t *testing.T, raw bool, b []byte) {
		var xs []float64
		if raw {
			for b = b[:min(len(b), 8*300)]; len(b) >= 8; b = b[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		} else {
			for _, c := range b[:min(len(b), 300)] {
				xs = append(xs, paletteValue(c, nil))
			}
		}
		checkSelect(t, xs)
	})
}

// finishSink keeps BenchmarkFinisher's results live.
var finishSink float64

// BenchmarkFinisher times one key's finish, the selection a median or a
// percentile runs per split-local key in the Map (Finisher) and per key
// in the Reduce (Apply): a median of 16, 64, 65 and 1 024 values and
// percentile 90 of 64, over 1 024 vectors of N(15, 10) samples taken in
// turn. Each op copies its vector into one work slice first (the copy is
// timed with the finish), so every finish starts from unordered samples.
// Allocations are reported; there are none.
func BenchmarkFinisher(b *testing.B) {
	for _, c := range []struct {
		label, name string
		p           float64
		n           int
	}{{"median", "median", 0, 16}, {"median", "median", 0, 64}, {"median", "median", 0, 65},
		{"median", "median", 0, 1024}, {"p90", "percentile", 90, 64}} {
		b.Run(fmt.Sprintf("%s/n=%d", c.label, c.n), func(b *testing.B) {
			const vectors = 1024
			op, _ := Lookup(c.name)
			finish, _ := Finisher(op, c.p)
			r := rand.New(rand.NewSource(1))
			src := make([]float64, vectors*c.n)
			for i := range src {
				src[i] = 15 + 10*r.NormFloat64()
			}
			work := make([]float64, c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := i % vectors
				copy(work, src[v*c.n:(v+1)*c.n])
				finishSink = finish(work)
			}
		})
	}
}

// TestQuickDistributiveCombinerEquivalence: applying a distributive
// operator to merged partial aggregates equals applying it to the full
// sample set — the exact property that makes SIDR's combiner-folded
// counts safe for distributive operators.
func TestQuickDistributiveCombinerEquivalence(t *testing.T) {
	names := []string{"sum", "count", "avg", "min", "max", "stddev", "range", "absmax"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		parts := 1 + r.Intn(5)
		partials := make([]kv.Value, parts)
		var full kv.Value
		for i, x := range xs {
			addPoint(&partials[i%parts], x, false)
			addPoint(&full, x, false)
		}
		merged := mergeValues(partials)
		for _, name := range names {
			op, err := Lookup(name)
			if err != nil {
				return false
			}
			a := op.Apply(merged, 0)
			b := op.Apply(full, 0)
			if len(a) != 1 || len(b) != 1 || math.Abs(a[0]-b[0]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFilterSurvivorsEquivalence: pre-filtering in a combiner then
// filtering again at the reducer yields the same survivors, in the same
// order and bit for bit, as filtering once at the reducer. Each part is
// a consecutive run of the key's points, as a split's band is, and the
// parts merge in their order, as the Reduce folds splits.
func TestQuickFilterSurvivorsEquivalence(t *testing.T) {
	flt, _ := Lookup("filter_gt")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		thresh := r.NormFloat64()
		var full kv.Value
		parts := make([]kv.Value, 1+r.Intn(4))
		for i := 0; i < n; i++ {
			x := r.NormFloat64()
			addPoint(&full, x, true)
			addPoint(&parts[i*len(parts)/n], x, true)
		}
		filtered := make([]kv.Value, len(parts))
		for i, p := range parts {
			filtered[i] = preFiltered(flt, p, thresh)
		}
		merged := mergeValues(filtered)
		a := flt.Apply(merged, thresh)
		b := flt.Apply(full, thresh)
		if merged.Count != full.Count || len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOperatorsReadOnlyWhatTheyDeclare holds every registered operator,
// single-input and join, to its Stats declaration, which the Map kernel
// folds and the spill writes: Apply (or Combine) on a value with every
// statistic folded must give, bit for bit, what it gives on a copy whose
// undeclared statistics are poisoned — NaN, ±Inf or random bits — over
// random inputs that include NaN, ±0 and ±Inf. (A join side's NaN cells
// are missing data, never folded, so its inputs hold none.) The holistic
// operators and the filters declare nothing, which is what lets a key's
// statistics stay +0 although its per-split partials, merged, would fold
// them in another association than one pass over its points.
func TestOperatorsReadOnlyWhatTheyDeclare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	draw := func() []float64 {
		xs := make([]float64, rng.Intn(12))
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
			if rng.Intn(5) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
		return xs
	}
	poison := func(x *float64) {
		*x = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(rng.Uint64())}[rng.Intn(4)]
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	clone := func(v kv.Value) kv.Value {
		v.Samples = append([]float64(nil), v.Samples...)
		return v
	}
	joins := make([]string, 0, len(joinRegistry))
	for name := range joinRegistry {
		joins = append(joins, name)
	}
	sort.Strings(joins)
	for iter := 0; iter < 3000; iter++ {
		xs := draw()
		params := []float64{rng.Float64()*120 - 10, rng.Float64()*120 - 10}
		for _, name := range Names() {
			op, _ := Lookup(name)
			full, st := valueOf(op.NeedsSamples(), xs...), op.Stats()
			poisoned := full
			if st&kv.StatSum == 0 {
				poison(&poisoned.Sum)
			}
			if st&kv.StatSumSq == 0 {
				poison(&poisoned.SumSq)
			}
			if st&kv.StatMinMax == 0 {
				poison(&poisoned.Min)
				poison(&poisoned.Max)
			}
			if want, got := op.Apply(clone(full), params...), op.Apply(clone(poisoned), params...); !same(want, got) {
				t.Fatalf("%s declares %03b but reads more: over %v it gives %v, %v with the rest poisoned (%+v)",
					name, st, xs, want, got, poisoned)
			}
		}
		var sides [2]SideAgg
		for s := range sides {
			for _, x := range draw() {
				if x == x {
					sides[s].Sum += x
					sides[s].Count++
					sides[s].Samples = append(sides[s].Samples, x)
				}
			}
		}
		for _, name := range joins {
			op := joinRegistry[name]
			a, b := sides[0], sides[1]
			if !op.NeedsSamples() {
				a.Samples, b.Samples = nil, nil
			}
			pa, pb := a, b
			if op.Stats()&kv.StatSum == 0 {
				poison(&pa.Sum)
				poison(&pb.Sum)
			}
			want, wok := op.Combine(a, b)
			got, gok := op.Combine(pa, pb)
			if wok != gok || !same(want, got) {
				t.Fatalf("%s declares %03b but reads more: %v (%t), %v (%t) with the rest poisoned", name, op.Stats(), want, wok, got, gok)
			}
		}
	}
}

// TestFinisherMatchesApply holds the Map kernel's finishing step to the
// Reduce's Apply. Finisher is ok for median and percentile alone. Over
// random sample sets with NaN, ±0, ±Inf and duplicates, finish(s) equals
// Apply's one output by math.Float64bits, and Apply of the value a Map
// task ships for a finished key — that one sample, Count still the key's
// points, every statistic +0 — returns it unchanged. No join operator is
// an Operator, so none can be passed to Finisher.
func TestFinisherMatchesApply(t *testing.T) {
	for _, name := range Names() {
		op, _ := Lookup(name)
		if _, ok := Finisher(op); ok != (name == "median" || name == "percentile") {
			t.Fatalf("Finisher(%s) ok = %t", name, ok)
		}
	}
	for name, op := range joinRegistry {
		if _, isOp := op.(Operator); isOp {
			t.Fatalf("join operator %s is an Operator", name)
		}
	}
	rng := rand.New(rand.NewSource(41))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5, -2.25}
	for iter := 0; iter < 2000; iter++ {
		xs := make([]float64, rng.Intn(14))
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = pool[rng.Intn(len(pool))]
			case 1:
				if i > 0 {
					xs[i] = xs[rng.Intn(i)] // a duplicate
					break
				}
				fallthrough
			default:
				xs[i] = rng.NormFloat64() * 100
			}
		}
		for _, c := range []struct {
			name string
			p    float64
		}{{"median", 0}, {"percentile", 0}, {"percentile", 1}, {"percentile", 50}, {"percentile", 99}, {"percentile", 100}} {
			op, _ := Lookup(c.name)
			finish, _ := Finisher(op, c.p)
			want := op.Apply(kv.Value{Samples: append([]float64(nil), xs...), Count: int64(len(xs))}, c.p)
			got := finish(append([]float64(nil), xs...))
			if len(want) != 1 || math.Float64bits(want[0]) != math.Float64bits(got) {
				t.Fatalf("%s p=%v over %v: Apply %v, finish %v", c.name, c.p, xs, want, got)
			}
			once := op.Apply(kv.Value{Samples: []float64{got}, Count: int64(len(xs))}, c.p)
			if len(once) != 1 || math.Float64bits(once[0]) != math.Float64bits(got) {
				t.Fatalf("%s p=%v: Apply of the finished sample %v gives %v", c.name, c.p, got, once)
			}
		}
	}
}

// mergeValues folds one key's values from several Map tasks as a Reduce
// task does: through kv.MergeSorted.
func mergeValues(vs []kv.Value) kv.Value {
	streams := make([][]kv.Pair, len(vs))
	for i, v := range vs {
		streams[i] = []kv.Pair{{Key: coords.NewCoord(0), Value: v}}
	}
	return kv.MergeSorted(streams)[0].Value
}

// Names returns all registered operator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
