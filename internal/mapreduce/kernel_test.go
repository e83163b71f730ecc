package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/mapkernel"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// refExecMap is the per-point Map task body the batch kernel replaced,
// kept as the differential oracle: one callback per source point,
// mapKey + Contains + Partition + Linearize and a hash-map lookup
// each, Delinearize and a sort at seal time. It folds every statistic
// and then sets the ones the operator does not declare to +0, as the
// kernel leaves them. With the combiner on, a median or percentile key
// all of whose input points the split holds ships finished: its samples
// become the operator applied to them, and Count stays its points.
// ExecMap must reproduce its output bit for bit.
func refExecMap(in MapInput, split InputSplit) ([]MapOut, int64, error) {
	q := in.Query
	r := in.Part.NumKeyblocks()
	outs := make([]MapOut, r)
	live, ok := split.Slab.Intersect(q.Input)
	if !ok {
		return outs, 0, nil
	}
	needSamples := in.Op.NeedsSamples()
	preFilter := in.Combine && in.Op.Kind() == ops.Filter
	var inputPoints map[int64]int64 // each key's points in the whole input
	if _, finishes := ops.Finisher(in.Op); in.Combine && finishes {
		inputPoints = map[int64]int64{}
		q.Input.EachReuse(func(k coords.Coord) bool {
			if kp, mapped := mapKey(q.Extraction, k, nil); mapped && slabContains(in.Space, kp) {
				off, _ := in.Space.Linearize(kp)
				inputPoints[off]++
			}
			return true
		})
	}

	accums := make([]map[int64]*kv.Value, r)
	for i := range accums {
		accums[i] = make(map[int64]*kv.Value)
	}
	var records, seen int64
	var kpBuf coords.Coord
	err := eachPoint(in.Reader, live, func(k coords.Coord, v float64) error {
		if seen&63 == 0 && in.Ctx != nil {
			if err := in.Ctx.Err(); err != nil {
				return err
			}
		}
		seen++
		kp, mapped := mapKey(q.Extraction, k, kpBuf)
		if kp != nil {
			kpBuf = kp[:0]
		}
		if !mapped {
			return nil // stride gap
		}
		if !slabContains(in.Space, kp) {
			return nil // discarded partial tile (KeepPartial == false semantics)
		}
		records++
		kb, err := in.Part.Partition(kp)
		if err != nil {
			return err
		}
		off, err := in.Space.Linearize(kp)
		if err != nil {
			return err
		}
		m := accums[kb]
		val := m[off]
		if val == nil {
			val = &kv.Value{}
			m[off] = val
		}
		addPoint(val, v, needSamples)
		outs[kb].SourceCount++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for kb, m := range accums {
		if len(m) == 0 {
			continue
		}
		pairs := make([]kv.Pair, 0, len(m))
		for off, val := range m {
			kp, err := in.Space.Delinearize(off)
			if err != nil {
				return nil, 0, err
			}
			out := *val
			if preFilter {
				out = refPreFilter(in.Op, out, q.Params()...)
			}
			if inputPoints != nil && inputPoints[off] == out.Count {
				out.Samples = in.Op.Apply(kv.Value{Samples: slices.Clone(out.Samples)}, q.Params()...)
			}
			pairs = append(pairs, kv.Pair{Key: kp, Value: declared(out, in.Op.Stats())})
		}
		slices.SortFunc(pairs, func(a, b kv.Pair) int { return a.Key.Compare(b.Key) })
		outs[kb].Pairs = pairs
	}
	return outs, records, nil
}

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

// refPreFilter is the combiner the Map kernel's fold-time selection
// replaced, kept as part of the oracle: the predicate over a key's
// samples in source order, the statistics folded over the survivors
// into a value whose Count stays the source count and whose Samples,
// non-nil even when empty, is an array of the survivors' own, in source
// order.
func refPreFilter(op ops.Operator, v kv.Value, params ...float64) kv.Value {
	p := append(append([]float64(nil), params...), 0, 0)
	keep := map[string]func(float64) bool{
		"filter_gt":    func(x float64) bool { return x > p[0] },
		"filter_lt":    func(x float64) bool { return x < p[0] },
		"filter_range": func(x float64) bool { return x >= p[0] && x <= p[1] },
	}[op.Name()]
	kept := []float64{}
	for _, x := range v.Samples {
		if keep(x) {
			kept = append(kept, x)
		}
	}
	var out kv.Value
	for _, x := range kept {
		addPoint(&out, x, false)
	}
	out.Samples = kept[:len(kept):len(kept)]
	out.Count = v.Count
	return out
}

// eachPoint is the record stream the per-point kernel consumed: one emit
// per point of the slab in row-major order, the coordinate valid only
// for the duration of the call.
func eachPoint(r coords.RecordReader, slab coords.Slab, emit func(coords.Coord, float64) error) error {
	vals, err := r.ReadSlabInto(slab, nil)
	if err != nil {
		return err
	}
	i := 0
	slab.EachReuse(func(k coords.Coord) bool {
		err = emit(k, vals[i])
		i++
		return err == nil
	})
	return err
}

// declared is v with every statistic outside st set to +0: what the
// kernel leaves of a fold of every statistic when its operator declares
// st.
func declared(v kv.Value, st kv.Stats) kv.Value {
	if st&kv.StatSum == 0 {
		v.Sum = 0
	}
	if st&kv.StatSumSq == 0 {
		v.SumSq = 0
	}
	if st&kv.StatMinMax == 0 {
		v.Min, v.Max = 0, 0
	}
	return v
}

// valueBits renders every field of a value by its bits, so two values
// compare equal exactly when they are math.Float64bits-identical.
func valueBits(v kv.Value) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%x %x %x %x n=%d", math.Float64bits(v.Sum), math.Float64bits(v.SumSq),
		math.Float64bits(v.Min), math.Float64bits(v.Max), v.Count)
	if v.Samples == nil {
		b.WriteString(" nil")
	}
	for _, s := range v.Samples {
		fmt.Fprintf(&b, " %x", math.Float64bits(s))
	}
	return b.String()
}

// pairLines renders a keyblock's pairs one line each, in stream order,
// and checks that order: strictly ascending keys, so one pair per key.
func pairLines(t *testing.T, pairs []kv.Pair) []string {
	t.Helper()
	out := make([]string, len(pairs))
	for i, p := range pairs {
		if i > 0 && !pairs[i-1].Key.Less(p.Key) {
			t.Fatalf("pairs not strictly ascending by key: %v after %v", p.Key, pairs[i-1].Key)
		}
		out[i] = fmt.Sprintf("%v %s", p.Key, valueBits(p.Value))
	}
	return out
}

// checkSameMapOutput holds the kernel's output against the oracle's, pair
// for pair: records, per-keyblock SourceCount, keys and every kv.Value
// field, a key's samples in the same (row-major source) order.
func checkSameMapOutput(t *testing.T, label string, got, want []MapOut, gotRecords, wantRecords int64) {
	t.Helper()
	if gotRecords != wantRecords {
		t.Fatalf("%s: %d records, oracle %d", label, gotRecords, wantRecords)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d keyblocks, oracle %d", label, len(got), len(want))
	}
	for kb := range want {
		if got[kb].SourceCount != want[kb].SourceCount {
			t.Fatalf("%s kb %d: SourceCount %d, oracle %d", label, kb, got[kb].SourceCount, want[kb].SourceCount)
		}
		g, w := pairLines(t, got[kb].Pairs), pairLines(t, want[kb].Pairs)
		if len(g) != len(w) {
			t.Fatalf("%s kb %d: %d pairs, oracle %d", label, kb, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s kb %d pair %d:\n got    %s\n oracle %s", label, kb, i, g[i], w[i])
			}
		}
	}
}

// kernelValue is a full-mantissa pseudo-random field (so a reassociated
// sum changes low bits) with occasional NaN, ±Inf and -0 cells.
func kernelValue(k coords.Coord) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range k {
		h ^= uint64(x) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	switch h % 97 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Copysign(0, -1)
	}
	return (float64(h>>11)/float64(1<<53) - 0.5) * 1e3
}

// kernelCase is one geometry of the differential matrix.
type kernelCase struct {
	name        string
	input       coords.Slab
	es, stride  coords.Shape // stride nil = dense
	dropPartial bool         // Space keeps only tiles wholly inside input
	splitRows   []int64      // leading-dimension rows per split
	params      []float64    // a filter's parameters; nil: the matrix's
}

func (c kernelCase) query(op string) *query.Query {
	q := &query.Query{Operator: op, Variable: "v", Input: c.input,
		Extraction: mustExtraction(c.es, c.stride), KeepPartial: !c.dropPartial}
	switch op {
	case "filter_gt", "filter_lt":
		q.Param = 100
	case "filter_range":
		q.Param, q.Param2, q.HasParam2 = -200, 150, true
	case "percentile":
		q.Param = 75
	}
	if c.params != nil && strings.HasPrefix(op, "filter_") {
		q.Param, q.Param2 = c.params[0], c.params[1]
	}
	return q
}

// space is K'^T for the case: every tile overlapping the input, or only
// the tiles wholly inside it (the KeepPartial == false discard).
func (c kernelCase) space(t testing.TB, e coords.Extraction) coords.Slab {
	t.Helper()
	space, err := e.TileRange(c.input)
	if err != nil {
		t.Fatal(err)
	}
	if !c.dropPartial {
		return space
	}
	st := e.EffectiveStride()
	for d := range space.Corner {
		lo, end := c.input.Corner[d], c.input.Corner[d]+c.input.Shape[d]
		first, last := (lo+st[d]-1)/st[d], (end-e.Shape[d])/st[d]
		if end < e.Shape[d] || last < first {
			continue // no whole tile in this dimension: keep the partial ones
		}
		space.Corner[d], space.Shape[d] = first, last-first+1
	}
	return space
}

var kernelCases = []kernelCase{
	{name: "rank1", input: coords.MustSlab(coords.NewCoord(0), coords.NewShape(67)), es: coords.NewShape(5), splitRows: []int64{1, 7, 67}},
	{name: "rank1-corner-stride", input: coords.MustSlab(coords.NewCoord(3), coords.NewShape(61)), es: coords.NewShape(4), stride: coords.NewShape(6), splitRows: []int64{5, 61}},
	{name: "rank1-drop", input: coords.MustSlab(coords.NewCoord(2), coords.NewShape(40)), es: coords.NewShape(7), dropPartial: true, splitRows: []int64{3, 40}},
	{name: "rank2", input: coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(28, 10)), es: coords.NewShape(7, 5), splitRows: []int64{1, 4, 28}},
	{name: "rank2-partial", input: coords.MustSlab(coords.NewCoord(5, 3), coords.NewShape(23, 11)), es: coords.NewShape(4, 3), splitRows: []int64{3, 5, 23}},
	{name: "rank2-partial-drop", input: coords.MustSlab(coords.NewCoord(5, 3), coords.NewShape(23, 11)), es: coords.NewShape(4, 3), dropPartial: true, splitRows: []int64{3, 23}},
	{name: "rank2-gaps", input: coords.MustSlab(coords.NewCoord(1, 2), coords.NewShape(26, 17)), es: coords.NewShape(2, 3), stride: coords.NewShape(5, 4), splitRows: []int64{1, 4, 26}},
	{name: "rank2-identity", input: coords.MustSlab(coords.NewCoord(2, 1), coords.NewShape(9, 8)), es: coords.NewShape(1, 1), splitRows: []int64{2, 9}},
	{name: "rank2-one-tile", input: coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(6, 6)), es: coords.NewShape(8, 8), splitRows: []int64{2, 6}},
	{name: "rank3", input: coords.MustSlab(coords.NewCoord(0, 0, 0), coords.NewShape(12, 6, 8)), es: coords.NewShape(4, 3, 4), splitRows: []int64{1, 5, 12}},
	{name: "rank3-corner-gaps-drop", input: coords.MustSlab(coords.NewCoord(2, 1, 3), coords.NewShape(11, 7, 9)), es: coords.NewShape(2, 2, 3), stride: coords.NewShape(3, 2, 4), dropPartial: true, splitRows: []int64{2, 11}},
	{name: "rank3-corner-partial", input: coords.MustSlab(coords.NewCoord(1, 2, 1), coords.NewShape(10, 5, 10)), es: coords.NewShape(3, 2, 4), splitRows: []int64{4, 10}},
	// Lines of many tiles, for the line folds: a line a batch cuts
	// mid-tile (the input is longer than coords.BatchPoints), and wide
	// lines with gaps, an off-grid corner and a partial last tile, kept
	// and discarded.
	{name: "rank1-batch-cut", input: coords.MustSlab(coords.NewCoord(3), coords.NewShape(coords.BatchPoints+1000)), es: coords.NewShape(7), stride: coords.NewShape(9), splitRows: []int64{coords.BatchPoints + 1000}},
	{name: "rank2-wide-lines", input: coords.MustSlab(coords.NewCoord(1, 5), coords.NewShape(9, 203)), es: coords.NewShape(2, 8), stride: coords.NewShape(3, 10), splitRows: []int64{2, 9}},
	{name: "rank2-wide-lines-drop", input: coords.MustSlab(coords.NewCoord(1, 5), coords.NewShape(9, 203)), es: coords.NewShape(2, 8), dropPartial: true, splitRows: []int64{4}},
}

// runKernelCase compares ExecMap with the oracle on every split of one
// configuration.
func runKernelCase(t *testing.T, c kernelCase, opName string, combine bool, modulo bool, reducers int) {
	t.Helper()
	q := c.query(opName)
	op, err := q.Op()
	if err != nil {
		t.Fatal(err)
	}
	space := c.space(t, q.Extraction)
	var part partition.Partitioner
	if modulo {
		part, err = partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
	} else {
		part, err = partition.NewPartitionPlus(space, reducers, 0, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	in := MapInput{Query: q, Op: op, Space: space, Part: part, Reader: &FuncReader{Fn: kernelValue},
		Combine: combine}
	for _, rows := range c.splitRows {
		slabs, err := c.input.SplitDim(0, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i, slab := range slabs {
			split := InputSplit{ID: i, Slab: slab}
			label := fmt.Sprintf("%s %s combine=%t modulo=%t rows=%d split=%d", c.name, opName, combine, modulo, rows, i)
			want, wantRecords, err := refExecMap(in, split)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			got, gotRecords, err := ExecMap(in, split)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkSameMapOutput(t, label, got, want, gotRecords, wantRecords)
			if op.NeedsSamples() {
				checkSampleWindows(t, label, got)
			}
		}
	}
}

// checkSampleWindows: a samples-keeping operator's pairs carry windows
// sized from the geometry before the scan, so each is exactly full — a
// short window would have been regrown by AddRun, a long one shows spare
// capacity. (A pre-filtered pair's survivors are a cap-clipped window of
// the task's one survivor array.)
func checkSampleWindows(t *testing.T, label string, outs []MapOut) {
	t.Helper()
	for kb, o := range outs {
		for _, p := range o.Pairs {
			if len(p.Value.Samples) != cap(p.Value.Samples) {
				t.Fatalf("%s kb %d key %v: %d samples in a window of %d", label, kb, p.Key, len(p.Value.Samples), cap(p.Value.Samples))
			}
		}
	}
}

// TestMapKernelMatchesPerPointOracle is the differential matrix: rank 1–3
// × extraction shapes and strides (gaps included) × non-zero corners ×
// partial trailing tiles kept and discarded × every registered operator ×
// Combine on/off × partition+ and Modulo × split sizes that cut tiles.
// Every pair the batch kernel emits must equal the per-point oracle's by
// math.Float64bits.
func TestMapKernelMatchesPerPointOracle(t *testing.T) {
	for _, c := range kernelCases {
		for _, opName := range opNames {
			for _, combine := range []bool{false, true} {
				for _, modulo := range []bool{false, true} {
					runKernelCase(t, c, opName, combine, modulo, 3)
				}
			}
		}
	}
}

// TestMapKernelEmptyBox: a split whose points all fall in stride gaps or
// in discarded partial tiles takes the same path and emits nothing.
func TestMapKernelEmptyBox(t *testing.T) {
	q := &query.Query{Operator: "avg", Variable: "v",
		Input:      coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(20, 6)),
		Extraction: mustExtraction(coords.NewShape(2, 3), coords.NewShape(5, 3))}
	op, _ := q.Op()
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := MapInput{Query: q, Op: op, Space: space, Part: pp, Reader: &FuncReader{Fn: kernelValue}, Combine: true}
	for name, tc := range map[string]struct {
		slab  coords.Slab
		space coords.Slab
	}{
		"all-gap":   {coords.MustSlab(coords.NewCoord(2, 0), coords.NewShape(3, 6)), space},
		"discarded": {coords.MustSlab(coords.NewCoord(15, 0), coords.NewShape(5, 6)), coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(3, 2))},
	} {
		in.Space = tc.space
		split := InputSplit{Slab: tc.slab}
		want, wantRecords, err := refExecMap(in, split)
		if err != nil {
			t.Fatal(err)
		}
		scratch := &mapkernel.Scratch{}
		got, gotRecords, err := execMap(in, split, scratch)
		if err != nil {
			t.Fatal(err)
		}
		checkSameMapOutput(t, name, got, want, gotRecords, wantRecords)
		if gotRecords != 0 || len(scratch.Tile) != 0 {
			t.Fatalf("%s: %d records in a tile of %d cells, want none", name, gotRecords, len(scratch.Tile))
		}
	}
}

// TestMapTileIsTheKeyBox: the dense tile holds exactly one cell per K'
// key of the split's box — TileRange(live) ∩ Space, never more than
// TileRange(live) — and every cell is used: the tile is no larger than
// the key count the hash map held. The es {1,1} identity query is the
// worst case (one cell per point).
func TestMapTileIsTheKeyBox(t *testing.T) {
	for _, c := range kernelCases {
		q := c.query("avg")
		op, _ := q.Op()
		space := c.space(t, q.Extraction)
		pp, err := partition.NewPartitionPlus(space, 3, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := MapInput{Query: q, Op: op, Space: space, Part: pp, Reader: &FuncReader{Fn: kernelValue}, Combine: true}
		slabs, err := c.input.SplitDim(0, c.splitRows[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, slab := range slabs {
			scratch := &mapkernel.Scratch{}
			outs, _, err := execMap(in, InputSplit{Slab: slab}, scratch)
			if err != nil {
				t.Fatal(err)
			}
			keys := 0
			for _, o := range outs {
				keys += len(o.Pairs)
			}
			var bound int64
			if tiles, err := q.Extraction.TileRange(slab); err == nil {
				bound = tiles.Size()
			}
			box := q.Extraction.KeyBox(slab, space)
			if n := int64(len(scratch.Tile)); n != box.Size() || n > bound || n != int64(keys) {
				t.Fatalf("%s split %v: tile of %d cells, box %d, TileRange %d, %d keys emitted", c.name, slab, n, box.Size(), bound, keys)
			}
			if c.name == "rank2-identity" && int64(len(scratch.Tile)) != slab.Size() {
				t.Fatalf("identity query: tile of %d cells for %d points", len(scratch.Tile), slab.Size())
			}
			for i := range scratch.Tile {
				if scratch.Tile[i].Count != 0 || scratch.Tile[i].Samples != nil {
					t.Fatalf("%s: cell %d not zeroed at seal", c.name, i)
				}
			}
		}
	}
}

// TestMapCancelledWithinOneBatch: cancellation is checked per batch, so a
// context cancelled during a read aborts the task before the next one.
func TestMapCancelledWithinOneBatch(t *testing.T) {
	q := mustParse(t, "avg v[0,0 : 256,1024] es {8,8}") // 16 batches of 16 rows
	op, _ := q.Op()
	space, _ := q.IntermediateSpace()
	pp, err := partition.NewPartitionPlus(space, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reads := 0
	inner := &FuncReader{Fn: synthValue}
	in := MapInput{Query: q, Op: op, Space: space, Part: pp, Combine: true, Ctx: ctx,
		Reader: readerFunc(func(slab coords.Slab, dst []float64) ([]float64, error) {
			if slab.Size() > coords.BatchPoints {
				t.Errorf("read of %d points exceeds a batch", slab.Size())
			}
			reads++
			cancel()
			return inner.ReadSlabInto(slab, dst)
		})}
	if _, _, err := ExecMap(in, InputSplit{Slab: q.Input}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reads != 1 {
		t.Fatalf("%d batches read after cancellation, want the task to stop after 1", reads)
	}
}

// constReader fills batches without allocating, so an allocation count
// sees the kernel only.
type constReader struct{}

func (constReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	n := slab.Size()
	if int64(cap(dst)) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = float64(i&1023) * 0.37
	}
	return dst, nil
}

// gapReader is constReader with every third value missing (NaN), the
// way a sparse side of a join reads.
type gapReader struct{}

func (gapReader) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	dst, _ = constReader{}.ReadSlabInto(slab, dst)
	for i := 0; i < len(dst); i += 3 {
		dst[i] = math.NaN()
	}
	return dst, nil
}

// TestMapAllocsIndependentOfPoints: a warm Map task allocates per
// keyblock and per task, never per point or per batch: 64× the points
// over the same K' box cost the same allocations. That holds for the
// operators that keep samples too — a key's samples go into a window of
// one per-task array sized before the scan, and a filter's survivors are
// selected into a pooled arena as the scan folds, then copied out into
// one array per task. So a filter's allocated bytes follow its survivors,
// not its points: with none surviving, 64× the points cost the same bytes.
// A join's jcorr Map runs the same kernel, its present cells selected
// like survivors: a dense side and a side with missing cells allocate no
// more for more points either.
func TestMapAllocsIndependentOfPoints(t *testing.T) {
	measure := func(qs string, split int) (allocs float64, bytes uint64, survivors int) {
		q := mustParse(t, qs)
		in := MapInput{Query: q, Reader: constReader{}, Combine: true}
		if q.Join {
			splits := []coords.Slab{q.Input}
			jp, err := join.Build(q, join.Options{Reducers: 4}, nil, nil, splits, splits)
			if err != nil {
				t.Fatal(err)
			}
			in.Join, in.Part, in.Reader2 = jp, jp.Partitioner(), gapReader{}
		} else {
			in.Op, _ = q.Op()
			in.Space, _ = q.IntermediateSpace()
			pp, err := partition.NewPartitionPlus(in.Space, 4, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			in.Part = pp
		}
		s := InputSplit{ID: split, Slab: q.Input}
		scratch := &mapkernel.Scratch{}
		outs, _, err := execMap(in, s, scratch) // warm the scratch
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			for _, p := range o.Pairs {
				survivors += len(p.Value.Samples)
			}
		}
		run := func() {
			if _, _, err := execMap(in, s, scratch); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, run)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs, survivors
	}
	for _, op := range []string{"avg", "median", "filter_gt", "filter_gt param 1000"} {
		name, params, _ := strings.Cut(op, " ")
		small, smallBytes, _ := measure(name+" v[0,0 : 64,64] es {8,8} "+params, 0)             // 4 Ki points, 1 batch
		large, largeBytes, survivors := measure(name+" v[0,0 : 512,512] es {64,64} "+params, 0) // 256 Ki points, 16 batches, same 8×8 box
		if small != large {
			t.Fatalf("%s: allocations grew with the input: %v for 4 Ki points, %v for 256 Ki", op, small, large)
		}
		// The byte counts are process-wide, so a stray runtime allocation
		// can land in them; slack absorbs that, and is a 2 000th of the
		// 2 MiB a per-point array costs at 256 Ki points.
		const slack = 1 << 10
		switch {
		case params != "" && (survivors != 0 || largeBytes > smallBytes+slack):
			// constReader's values stay below 400: nothing passes.
			t.Fatalf("%s: %d survivors, %d bytes for 4 Ki points, %d for 256 Ki", op, survivors, smallBytes, largeBytes)
		case name == "filter_gt" && largeBytes > smallBytes+8*uint64(survivors)+8<<10+slack:
			// Beyond its survivors' array (rounded to a page), a filter
			// allocates no more for more points.
			t.Fatalf("%s: %d bytes for 256 Ki points and %d survivors, %d for 4 Ki points", op, largeBytes, survivors, smallBytes)
		}
	}
	// Split 0 reads the dense side A, split 1 side B with missing cells.
	for side, name := range []string{"jcorr dense side", "jcorr side with missing cells"} {
		small, _, _ := measure("join jcorr a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}", side)
		large, _, _ := measure("join jcorr a[0,0 : 512,512] es {64,64} with b[0,0 : 512,512] es {64,64}", side)
		if small != large {
			t.Fatalf("%s: allocations grew with the input: %v for 4 Ki points, %v for 256 Ki", name, small, large)
		}
	}
}

// FuzzMapKernel drives the batch kernel and the per-point oracle with
// fuzzed geometry — rank, shape, extraction shape, stride, corner, split
// cut, operator, combiner, partial-tile discard, partitioner — and
// requires identical output.
func FuzzMapKernel(f *testing.F) {
	// The matrix's corner cases: rank 1, non-zero corner with gaps, a
	// split cutting a tile, identity tiles, one tile larger than the
	// input, discarded partial tiles; holistic operators and filters with
	// the combiner on and off.
	f.Add([]byte{0, 67, 1, 1, 5, 1, 1, 0, 0, 0, 0, 0, 0, 3, 9, 1, 0, 2})
	f.Add([]byte{1, 26, 17, 1, 2, 3, 1, 3, 1, 0, 1, 2, 0, 5, 4, 0, 1, 3})
	f.Add([]byte{1, 23, 11, 1, 4, 3, 1, 0, 0, 0, 5, 3, 0, 2, 7, 1, 0, 3})
	f.Add([]byte{1, 9, 8, 1, 1, 1, 1, 0, 0, 0, 2, 1, 0, 0, 11, 0, 1, 4})
	f.Add([]byte{1, 6, 6, 1, 8, 8, 1, 0, 0, 0, 0, 0, 0, 1, 3, 1, 0, 2})
	f.Add([]byte{2, 11, 7, 9, 2, 2, 3, 1, 0, 1, 2, 1, 3, 3, 5, 2, 1, 3})
	// Filters whose bounds are values of the field, with the combiner on
	// and off: samples equal to a bound, a range with lo == hi and one
	// with lo > hi.
	f.Add([]byte{1, 20, 12, 1, 4, 3, 0, 0, 0, 0, 1, 2, 0, 6, 3, 1, 0, 3, 37, 0})
	f.Add([]byte{1, 20, 12, 1, 4, 3, 0, 0, 0, 0, 1, 2, 0, 6, 4, 1, 1, 3, 5, 0})
	f.Add([]byte{2, 9, 7, 11, 2, 3, 4, 0, 1, 0, 1, 0, 2, 4, 5, 1, 0, 2, 41, 41})
	f.Add([]byte{0, 60, 1, 1, 6, 1, 1, 0, 0, 0, 3, 0, 0, 17, 5, 1, 1, 4, 50, 9})
	// median and percentile with the combiner on, over splits that hold
	// some tiles whole and cut others: split-local keys ship finished
	// beside straddling ones, across stride gaps, with a partial trailing
	// tile kept (the first two) and discarded (the third), and an input
	// corner off the grid in a trailing dimension (the second).
	f.Add([]byte{1, 20, 9, 0, 3, 2, 0, 2, 0, 0, 0, 0, 0, 7, 7, 1, 0, 2})
	f.Add([]byte{2, 13, 7, 6, 2, 1, 3, 1, 0, 0, 0, 3, 0, 5, 9, 1, 1, 3})
	f.Add([]byte{0, 19, 1, 1, 5, 1, 1, 2, 0, 0, 0, 0, 0, 8, 7, 3, 0, 1})
	// The line folds: sum across stride gaps from an off-grid corner, avg
	// at rank 3 with partial tiles discarded, stddev along one line with
	// gaps, max under a 1-row extraction shape, range at rank 3 with a
	// kept partial tile.
	f.Add([]byte{1, 22, 21, 0, 2, 4, 0, 1, 2, 0, 2, 3, 0, 4, 13, 1, 0, 2})
	f.Add([]byte{2, 10, 8, 16, 1, 2, 3, 0, 0, 1, 1, 2, 5, 3, 1, 2, 1, 1})
	f.Add([]byte{0, 23, 0, 0, 3, 0, 0, 2, 0, 0, 7, 0, 0, 9, 12, 1, 0, 4})
	f.Add([]byte{1, 17, 13, 0, 0, 5, 0, 0, 3, 0, 3, 5, 0, 2, 6, 3, 1, 1})
	f.Add([]byte{2, 7, 8, 19, 3, 2, 5, 1, 0, 0, 4, 9, 10, 1, 10, 0, 0, 3})
	names := opNames
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 18 {
			return
		}
		rank := int(b[0])%3 + 1
		c := kernelCase{name: "fuzz", es: make(coords.Shape, rank), dropPartial: b[15]&2 != 0}
		corner, shape, stride := make(coords.Coord, rank), make(coords.Shape, rank), make(coords.Shape, rank)
		strided := false
		for d := 0; d < rank; d++ {
			shape[d] = int64(b[1+d])%24 + 1
			c.es[d] = int64(b[4+d])%9 + 1
			stride[d] = c.es[d] + int64(b[7+d])%4
			strided = strided || stride[d] != c.es[d]
			corner[d] = int64(b[10+d]) % 11
		}
		if strided {
			c.stride = stride
		}
		c.input = coords.Slab{Corner: corner, Shape: shape}
		if _, err := mustExtraction(c.es, c.stride).TileRange(c.input); err != nil {
			return // the whole input sits in stride gaps: no keyspace
		}
		c.splitRows = []int64{int64(b[13])%shape[0] + 1}
		opName := names[int(b[14])%len(names)]
		if len(b) >= 20 {
			// A filter's bounds become values the field takes at two of
			// the input's points, so samples sit at and around them.
			at := func(i byte) float64 {
				k, _ := c.input.Delinearize(int64(i) % c.input.Size())
				return kernelValue(k)
			}
			c.params = []float64{at(b[18]), at(b[19])}
			if math.IsNaN(c.params[0]) || opName == "filter_range" && math.IsNaN(c.params[1]) {
				return // queries reject NaN parameters
			}
		}
		runKernelCase(t, c, opName, b[15]&1 != 0, b[16]&1 != 0, int(b[17])%5+1)
	})
}

// TestHolisticKeyShipsOnePair: a holistic operator defeats the combiner's
// fold, not the kernel's — a key leaves a Map task as one pair, and the
// kv-count annotation still counts source points. The split [2,9) holds
// the es {4,5} tiles of rows 4–7 whole and cuts those of rows 0–3 and
// 8–11. With the combiner on, a key of rows 4–7 is split-local and ships
// finished: exactly one sample, its median, with Count its 20 source
// points. A straddling key, and every key with the combiner off, ships
// what it always has: every sample in row-major source order.
func TestHolisticKeyShipsOnePair(t *testing.T) {
	q := mustParse(t, "median v[0,0 : 12,10] es {4,5}")
	op, _ := q.Op()
	space, _ := q.IntermediateSpace()
	pp, err := partition.NewPartitionPlus(space, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	split := coords.MustSlab(coords.NewCoord(2, 0), coords.NewShape(7, 10))
	// The expectation, straight off the definition: every point of the
	// split, in row-major order, appended to its key's sample list.
	want := map[string][]float64{}
	split.EachReuse(func(k coords.Coord) bool {
		kp, _ := mapKey(q.Extraction, k, nil)
		want[kp.String()] = append(want[kp.String()], kernelValue(k))
		return true
	})
	for _, combine := range []bool{true, false} {
		in := MapInput{Query: q, Op: op, Space: space, Part: pp, Reader: &FuncReader{Fn: kernelValue}, Combine: combine}
		outs, records, err := ExecMap(in, InputSplit{Slab: split})
		if err != nil {
			t.Fatal(err)
		}
		if records != split.Size() {
			t.Fatalf("%d records, want %d", records, split.Size())
		}
		var points int64
		keys, finished := 0, 0
		for kb, o := range outs {
			live := 0
			space.EachReuse(func(kp coords.Coord) bool {
				if l, _ := pp.Partition(kp); l == kb && want[kp.String()] != nil {
					live++
				}
				return true
			})
			if len(o.Pairs) != live {
				t.Fatalf("keyblock %d: %d pairs for %d live keys", kb, len(o.Pairs), live)
			}
			var tally int64
			for _, p := range o.Pairs {
				samples := want[p.Key.String()]
				if p.Value.Count != int64(len(samples)) {
					t.Fatalf("key %v: Count %d, want its %d source points", p.Key, p.Value.Count, len(samples))
				}
				if combine && p.Key[0] == 1 {
					sorted := slices.Clone(samples)
					sort.Float64s(sorted)
					h := len(sorted) / 2
					median := (sorted[h-1] + sorted[h]) / 2
					if len(p.Value.Samples) != 1 || math.Float64bits(p.Value.Samples[0]) != math.Float64bits(median) {
						t.Fatalf("split-local key %v: samples %v, want the one median %v", p.Key, p.Value.Samples, median)
					}
					finished++
				} else {
					if len(p.Value.Samples) != len(samples) {
						t.Fatalf("key %v: %d samples, want %d", p.Key, len(p.Value.Samples), len(samples))
					}
					for i, x := range samples {
						if math.Float64bits(p.Value.Samples[i]) != math.Float64bits(x) {
							t.Fatalf("key %v sample %d out of source order", p.Key, i)
						}
					}
				}
				tally += p.Value.Count
			}
			if o.SourceCount != tally {
				t.Fatalf("keyblock %d: SourceCount %d, pairs carry %d", kb, o.SourceCount, tally)
			}
			points += o.SourceCount
			keys += len(o.Pairs)
		}
		if points != split.Size() || keys != len(want) {
			t.Fatalf("%d source points over %d pairs, want %d over %d", points, keys, split.Size(), len(want))
		}
		if wantFinished := map[bool]int{true: 2, false: 0}[combine]; finished != wantFinished {
			t.Fatalf("combine=%t: %d keys finished, want %d", combine, finished, wantFinished)
		}
	}
}

// mapKey maps input key k to its intermediate key (SIDR §3, Area 2),
// writing into buf when it has the capacity; ok is false for a key
// outside the keyspace or in a strided extraction's inter-tile gap.
func mapKey(e coords.Extraction, k, buf coords.Coord) (kp coords.Coord, ok bool) {
	st := e.EffectiveStride()
	if len(k) != len(st) {
		return nil, false
	}
	kp = append(buf[:0], k...)
	for i := range kp {
		if k[i] < 0 || k[i]%st[i] >= e.Shape[i] {
			return kp, false
		}
		kp[i] = k[i] / st[i]
	}
	return kp, true
}

// mustExtraction is coords.NewExtraction that panics on error.
func mustExtraction(shape, stride coords.Shape) coords.Extraction {
	e, err := coords.NewExtraction(shape, stride)
	if err != nil {
		panic(err)
	}
	return e
}

// slabContains reports whether c lies in s.
func slabContains(s coords.Slab, c coords.Coord) bool {
	_, err := s.Linearize(c)
	return err == nil
}

// opNames are the operators internal/ops registers (its TestNames pins
// the same list).
var opNames = []string{"absmax", "avg", "count", "filter_gt", "filter_lt", "filter_range", "max", "median", "min", "percentile", "range", "sort", "stddev", "sum"}
