package sidr

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// cellOrderData is deterministic, non-integer data in [-50, 50), shuffled
// by a hash of the coordinate so that no key's values come sorted, with
// NaN, −0 and +0 sprinkled in. Rows [9, 13) of the leading dimension are a
// hot band (+300) and rows [17, 19) a cold one (−300), so a selective
// predicate leaves splits an index can prune.
func cellOrderData(k []int64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range k {
		h = (h ^ uint64(c)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	switch h % 23 {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	}
	v := float64(h>>11)/(1<<53)*100 - 50
	switch {
	case k[0] >= 9 && k[0] < 13:
		v += 300
	case k[0] >= 17 && k[0] < 19:
		v -= 300
	}
	return v
}

// cellOrderQuery is one geometry of TestFilterValuesInCellOrder: an input
// box, its extraction shape and stride (nil: dense), and a split size in
// leading-dimension rows.
type cellOrderQuery struct {
	shape          []int64 // the dataset's
	corner, extent []int64 // the input box
	es, stride     []int64
	bandRows       int64
}

// text renders the query for operator op with parameters params.
func (g cellOrderQuery) text(op, params string) string {
	ints := func(xs []int64) string {
		s := make([]string, len(xs))
		for i, x := range xs {
			s[i] = fmt.Sprint(x)
		}
		return strings.Join(s, ",")
	}
	q := fmt.Sprintf("%s v[%s : %s] es {%s}", op, ints(g.corner), ints(g.extent), ints(g.es))
	if g.stride != nil {
		q += fmt.Sprintf(" stride {%s}", ints(g.stride))
	}
	return q + " param " + params
}

// cellOrderRef is the definition a filter's output follows, computed
// point by point with nothing of the engines: walk the input box in
// row-major order, map each point to its key by dividing each coordinate
// by the stride (a point in a stride's gap maps to none), and append the
// point's value to its key's list when the predicate keeps it. Keys come
// in row-major order; a key nothing survived in is absent. spread is the
// most split bands one key's survivors come from.
func cellOrderRef(g cellOrderQuery, data func([]int64) float64, keep func(float64) bool) (keys [][]int64, values [][]float64, spread int) {
	stride := g.stride
	if stride == nil {
		stride = g.es
	}
	rows, bands := map[string][]float64{}, map[string]map[int64]bool{}
	var order [][]int64
	k := slices.Clone(g.corner)
	for {
		key := make([]int64, len(k))
		inTile := true
		for d := range k {
			key[d] = k[d] / stride[d]
			inTile = inTile && k[d]%stride[d] < g.es[d]
		}
		if x := data(k); inTile && keep(x) {
			id := fmt.Sprint(key)
			if _, seen := rows[id]; !seen {
				order = append(order, key)
				bands[id] = map[int64]bool{}
			}
			rows[id] = append(rows[id], x)
			bands[id][(k[0]-g.corner[0])/g.bandRows] = true
			spread = max(spread, len(bands[id]))
		}
		d := len(k) - 1
		for ; d >= 0; d-- {
			if k[d]++; k[d] < g.corner[d]+g.extent[d] {
				break
			}
			k[d] = g.corner[d]
		}
		if d < 0 {
			break
		}
	}
	slices.SortFunc(order, slices.Compare[[]int64])
	for _, key := range order {
		keys = append(keys, key)
		values = append(values, rows[fmt.Sprint(key)])
	}
	return keys, values, spread
}

// TestFilterValuesInCellOrder pins a filter's output order: each key's
// surviving values come in the row-major order of the key's source cells,
// in every engine, at one Reduce, at four and at one per split band, with
// the structural index on and off. The inputs start off the tile grid, so
// split bands cut through tiles and a key's cells reach the Reduce from
// two or three Map tasks; the data holds NaN, −0 and +0. Values compare
// as sequences of Float64bits against cellOrderRef, over Result and over
// every PartialResult.
func TestFilterValuesInCellOrder(t *testing.T) {
	geometries := []cellOrderQuery{
		// Tiles 4 rows high over 2-row bands from row 1: 2–3 splits a key.
		{shape: []int64{24, 7, 5}, corner: []int64{1, 2, 1}, extent: []int64{21, 5, 4}, es: []int64{4, 3, 2}, bandRows: 2},
		// Tiles 5 rows high over 3-row bands from row 3, partial tiles in
		// both dimensions.
		{shape: []int64{31, 9}, corner: []int64{3, 1}, extent: []int64{27, 8}, es: []int64{5, 4}, bandRows: 3},
		// A strided extraction: tiles 3 rows high every 4 over 2-row
		// bands from row 2.
		{shape: []int64{24, 7, 5}, corner: []int64{2, 0, 1}, extent: []int64{22, 7, 4}, es: []int64{3, 2, 2}, stride: []int64{4, 3, 3}, bandRows: 2},
	}
	filters := []struct {
		op, params string
		keep       func(float64) bool
	}{
		{"filter_gt", "0", func(x float64) bool { return x > 0 }},
		{"filter_gt", "200", func(x float64) bool { return x > 200 }},
		{"filter_lt", "0", func(x float64) bool { return x < 0 }},
		{"filter_lt", "-100", func(x float64) bool { return x < -100 }},
		{"filter_range", "0,10", func(x float64) bool { return x >= 0 && x <= 10 }},
		{"filter_range", "250,400", func(x float64) bool { return x >= 250 && x <= 400 }},
	}
	pruned, multi, spread := 0, 0, 0
	for _, g := range geometries {
		ds, err := Synthetic(g.shape, cellOrderData)
		if err != nil {
			t.Fatal(err)
		}
		index, err := ds.BuildIndex(int(g.shape[0]))
		if err != nil {
			t.Fatal(err)
		}
		row := g.extent[1]
		for _, e := range g.extent[2:] {
			row *= e
		}
		bands := int((g.extent[0] + g.bandRows - 1) / g.bandRows)
		for _, f := range filters {
			qs := g.text(f.op, f.params)
			q, err := ParseQuery(qs)
			if err != nil {
				t.Fatalf("%s: %v", qs, err)
			}
			wantKeys, wantValues, s := cellOrderRef(g, cellOrderData, f.keep)
			spread = max(spread, s)
			want := make(map[string][]float64, len(wantKeys))
			for i, key := range wantKeys {
				want[fmt.Sprint(key)] = wantValues[i]
				if len(wantValues[i]) > 1 {
					multi++
				}
			}
			for _, engine := range []Engine{Hadoop, SciHadoop, SIDR} {
				for _, reducers := range []int{1, 4, bands} {
					for _, withIndex := range []bool{false, true} {
						opts := RunOptions{Engine: engine, Reducers: reducers, SplitPoints: g.bandRows * row}
						if withIndex {
							opts.Index = index
							planOpts := opts
							plan, err := newPlan(q, &planOpts, nil, nil)
							if err != nil {
								t.Fatalf("%s: %v", qs, err)
							}
							pruned += plan.PrunedSplits
						}
						run := fmt.Sprintf("%s engine=%v reducers=%d index=%v", qs, engine, reducers, withIndex)
						res, err := Run(ds, q, opts)
						if err != nil {
							t.Fatalf("%s: %v", run, err)
						}
						if !slices.EqualFunc(res.Keys, wantKeys, slices.Equal[[]int64]) {
							t.Fatalf("%s: keys %v, want %v", run, res.Keys, wantKeys)
						}
						for i, key := range res.Keys {
							checkCellOrder(t, run, key, res.Values[i], wantValues[i])
						}
						for _, pr := range res.Partials {
							for i, key := range pr.Keys {
								checkCellOrder(t, fmt.Sprintf("%s keyblock %d", run, pr.Keyblock), key, pr.Values[i], want[fmt.Sprint(key)])
							}
						}
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no index-on plan pruned a split: the index arm tested nothing")
	}
	if multi == 0 || spread < 3 {
		t.Fatalf("%d keys kept two values or more, and at most %d split bands fed one key's survivors: the order is not tested across Map tasks", multi, spread)
	}
}

// checkCellOrder fails unless got is want, value for value, by
// Float64bits.
func checkCellOrder(t *testing.T, run string, key []int64, got, want []float64) {
	t.Helper()
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = math.Float64bits(got[i]) == math.Float64bits(want[i])
	}
	if !same {
		t.Fatalf("%s: key %v holds %v, want %v in cell order", run, key, got, want)
	}
}
