package depgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// weeklyQuery is the paper's running example: weekly averages over a
// {364, 10} dataset with extraction {7, 5} (trimmed to full weeks).
func weeklyQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.Parse("avg temp[0,0 : 364,10] es {7,5}")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// rowSplits slices the input into contiguous row bands.
func rowSplits(input coords.Slab, rows int64) []coords.Slab {
	parts, err := input.SplitDim(0, rows)
	if err != nil {
		panic(err)
	}
	return parts
}

// totalPoints is the number of source pairs across all keyblocks; it
// equals the query input size for dense extractions.
func totalPoints(g *Graph) int64 {
	var n int64
	for _, c := range g.ExpectedCount {
		n += c
	}
	return n
}

// handGraph builds a graph from hand-written per-split counts.
func handGraph(t *testing.T, splits, keyblocks int, count func(split int, counts []int64)) *Graph {
	t.Helper()
	g, err := New(splits, keyblocks, func(split int, counts []int64) error {
		count(split, counts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestPartitionPlusAlignedDependencies(t *testing.T) {
	q := weeklyQuery(t)
	// K'^T = {52, 2}; 4 contiguous keyblocks of 26 keys each.
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 4, 26, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 splits of 91 rows = 13 weeks each: dependencies must align 1:1.
	splits := rowSplits(q.Input, 91)
	g, err := Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	if g.numSplits() != 4 || g.numKeyblocks() != 4 {
		t.Fatalf("graph %dx%d", g.numSplits(), g.numKeyblocks())
	}
	for l := 0; l < 4; l++ {
		deps := g.KBToSplits[l]
		if len(deps) != 1 || deps[0] != l {
			t.Fatalf("keyblock %d deps = %v, want [%d] (natural alignment, Figure 8b)", l, deps, l)
		}
	}
	if g.SIDRConnections() != 4 {
		t.Fatalf("SIDR connections = %d", g.SIDRConnections())
	}
	if g.HadoopConnections() != 16 {
		t.Fatalf("Hadoop connections = %d", g.HadoopConnections())
	}
}

func TestModuloCreatesGlobalDependencies(t *testing.T) {
	q := weeklyQuery(t)
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	m, err := partition.NewModulo(4, partition.TileIndexEncoding{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	splits := rowSplits(q.Input, 91)
	g, err := Build(q, splits, m)
	if err != nil {
		t.Fatal(err)
	}
	// §3.4: modulo scatters keys, so every keyblock depends on every
	// split.
	for l := 0; l < 4; l++ {
		if len(g.KBToSplits[l]) != 4 {
			t.Fatalf("keyblock %d deps = %v, want all 4 (global dependency)", l, g.KBToSplits[l])
		}
	}
	if g.SIDRConnections() != g.HadoopConnections() {
		t.Fatalf("modulo should degenerate to global: %d vs %d", g.SIDRConnections(), g.HadoopConnections())
	}
}

func TestExpectedCounts(t *testing.T) {
	q := weeklyQuery(t)
	space, _ := q.IntermediateSpace()
	pp, _ := partition.NewPartitionPlus(space, 4, 26, nil)
	splits := rowSplits(q.Input, 91)
	g, err := Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	// Every input point lands in exactly one keyblock.
	if n := totalPoints(g); n != q.Input.Size() {
		t.Fatalf("total points = %d, want %d", n, q.Input.Size())
	}
	// Balanced alignment: each keyblock receives a quarter of the input.
	want := q.Input.Size() / 4
	for l, c := range g.ExpectedCount {
		if c != want {
			t.Fatalf("keyblock %d expects %d pairs, want %d", l, c, want)
		}
	}
	for i, split := range splits {
		one, err := Build(q, []coords.Slab{split}, pp)
		if err != nil {
			t.Fatal(err)
		}
		if n := totalPoints(one); n != split.Size() {
			t.Fatalf("split %d points = %d, want %d", i, n, split.Size())
		}
	}
}

func TestSplitsOutsideQueryInput(t *testing.T) {
	// Query covers only the first half of the dataset; second-half splits
	// must contribute nothing.
	q, err := query.Parse("avg temp[0,0 : 50,10] es {5,5}")
	if err != nil {
		t.Fatal(err)
	}
	dataset := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(100, 10))
	splits := rowSplits(dataset, 25)
	space, _ := q.IntermediateSpace()
	pp, _ := partition.NewPartitionPlus(space, 2, 0, nil)
	g, err := Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.SplitToKB[2]) != 0 || len(g.SplitToKB[3]) != 0 {
		t.Fatalf("out-of-query splits have deps: %v", g.SplitToKB)
	}
	if n := totalPoints(g); n != q.Input.Size() {
		t.Fatalf("total points = %d", n)
	}
}

func TestStridedQueryCounts(t *testing.T) {
	// Shape 2 stride 4 over 16 rows: tiles cover rows 0-1, 4-5, 8-9,
	// 12-13; half the points are in gaps.
	q, err := query.Parse("avg t[0 : 16] es {2} stride {4}")
	if err != nil {
		t.Fatal(err)
	}
	space, _ := q.IntermediateSpace()
	pp, _ := partition.NewPartitionPlus(space, 2, 0, nil)
	splits := rowSplits(q.Input, 4)
	g, err := Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	if n := totalPoints(g); n != 8 {
		t.Fatalf("total points = %d, want 8 (gaps excluded)", n)
	}
}

func TestSplitEntirelyInGap(t *testing.T) {
	// Shape 1 stride 4: splits covering rows 1-3 are all gap.
	q, err := query.Parse("avg t[0 : 16] es {1} stride {4}")
	if err != nil {
		t.Fatal(err)
	}
	gapSplit := coords.MustSlab(coords.NewCoord(1), coords.NewShape(3))
	space, _ := q.IntermediateSpace()
	pp, _ := partition.NewPartitionPlus(space, 2, 0, nil)
	g, err := Build(q, []coords.Slab{gapSplit}, pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.SplitToKB[0]) != 0 {
		t.Fatalf("gap split has deps: %v", g.SplitToKB[0])
	}
}

// The job loop realises SIDR's reduce-first policy (§3.3) as a static Map
// order off the graph; the two tests below hold it on hand-built graphs.
func TestDependencyDrivenMapOrder(t *testing.T) {
	// Split i feeds exactly keyblock i.
	g := handGraph(t, 4, 4, func(split int, counts []int64) { counts[split] = 1 })
	if order := g.MapOrder([]int{2, 0, 3, 1}); !reflect.DeepEqual(order, []int{2, 0, 3, 1}) {
		t.Fatalf("order = %v, want the priority order", order)
	}
	// Default priority yields keyblock order.
	if order := g.MapOrder(nil); !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("default order = %v", order)
	}
}

func TestDependencyDrivenMapOrderCoversUnreferencedSplits(t *testing.T) {
	// Splits outside the query input appear in no I_ℓ but must still be
	// ordered (they run as no-ops), after every split some keyblock needs;
	// a split two keyblocks share is ordered once, by the first.
	g := handGraph(t, 4, 2, func(split int, counts []int64) {
		switch split {
		case 3:
			counts[0] = 1
		case 1:
			counts[0], counts[1] = 1, 1
		}
	})
	if order := g.MapOrder(nil); !reflect.DeepEqual(order, []int{1, 3, 0, 2}) {
		t.Fatalf("order = %v, want [1 3 0 2]", order)
	}
}

func TestQuery1PaperScaleGeometry(t *testing.T) {
	// The planner math must run at full paper scale: Query 1 over
	// {7200,360,720,50} with ES {2,36,36,10}, 2,781 splits (the paper's
	// count for 348 GB / 128 MB), 22 reducers. This exercises the exact
	// geometry behind Figures 9-10 and Table 3.
	if testing.Short() {
		t.Skip("paper-scale geometry in -short mode")
	}
	q, err := query.Parse("median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}")
	if err != nil {
		t.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 22, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous 3-row bands along dim 0 give 2,400 splits — the same
	// order of magnitude as the paper's 2,781 (whose exact count depends
	// on HDFS byte layout).
	splits, err := q.Input.SplitDim(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	if n := totalPoints(g); n != q.Input.Size() {
		t.Fatalf("total points = %d, want %d", n, q.Input.Size())
	}
	// SIDR connections must be dramatically below Hadoop's M×R.
	sidr, hadoop := g.SIDRConnections(), g.HadoopConnections()
	if sidr >= hadoop/10 {
		t.Fatalf("SIDR connections %d not ≪ Hadoop %d", sidr, hadoop)
	}
	// Contiguous keyblocks over a leading-dimension split: each split
	// feeds at most 2 keyblocks (it straddles at most one boundary).
	for i, kbs := range g.SplitToKB {
		if len(kbs) > 2 {
			t.Fatalf("split %d feeds %d keyblocks: %v", i, len(kbs), kbs)
		}
	}
}

// TestQuickInversionConsistent: KBToSplits is exactly the inverse
// relation of SplitToKB for random queries, splits, and partitioners.
func TestQuickInversionConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := int64(8 + r.Intn(40))
		cols := int64(1 + r.Intn(8))
		q := &query.Query{
			Operator:   "sum",
			Variable:   "v",
			Input:      coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(rows, cols)),
			Extraction: mustExtraction(coords.NewShape(1+int64(r.Intn(4)), 1+int64(r.Intn(3))), nil),
		}
		space, err := q.IntermediateSpace()
		if err != nil {
			return false
		}
		reducers := 1 + r.Intn(5)
		var p partition.Partitioner
		if r.Intn(2) == 0 {
			p, err = partition.NewPartitionPlus(space, reducers, 1+r.Int63n(20), nil)
		} else {
			p, err = partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
		}
		if err != nil {
			return false
		}
		splits := rowSplits(q.Input, 1+int64(r.Intn(int(rows))))
		g, err := Build(q, splits, p)
		if err != nil {
			return false
		}
		// Forward edges all appear inverted...
		for s, kbs := range g.SplitToKB {
			for _, kb := range kbs {
				if !containsInt(g.KBToSplits[kb], s) {
					return false
				}
			}
		}
		// ...and no phantom inverse edges exist.
		for kb, ss := range g.KBToSplits {
			for _, s := range ss {
				if !containsInt(g.SplitToKB[s], kb) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestQuickCountsPartitionIndependent: the total source-pair count is
// invariant across partitioners — partitioning only routes pairs.
func TestQuickCountsPartitionIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := int64(10 + r.Intn(50))
		cols := int64(1 + r.Intn(10))
		es := int64(1 + r.Intn(4))
		q := &query.Query{
			Operator:   "avg",
			Variable:   "v",
			Input:      coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(rows, cols)),
			Extraction: mustExtraction(coords.NewShape(es, 1), nil),
		}
		space, err := q.IntermediateSpace()
		if err != nil {
			return false
		}
		reducers := 1 + r.Intn(6)
		pp, err := partition.NewPartitionPlus(space, reducers, 0, nil)
		if err != nil {
			return false
		}
		mod, err := partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
		if err != nil {
			return false
		}
		splits := rowSplits(q.Input, 1+int64(r.Intn(int(rows))))
		g1, err := Build(q, splits, pp)
		if err != nil {
			return false
		}
		g2, err := Build(q, splits, mod)
		if err != nil {
			return false
		}
		return totalPoints(g1) == totalPoints(g2) && totalPoints(g1) == q.Input.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceGraph is §3.2's definition, point by point: every point of a
// split that lies in the query input and outside the stride gaps maps to
// its K' key (Extraction.MapKey), the partitioner routes the key to a
// keyblock, split → keyblock is a dependency, and I_ℓ is its inverse.
func referenceGraph(q *query.Query, splits []coords.Slab, p partition.Partitioner) (*Graph, error) {
	r := p.NumKeyblocks()
	counts := make([][]int64, len(splits))
	for i, split := range splits {
		counts[i] = make([]int64, r)
		var err error
		split.EachReuse(func(k coords.Coord) bool {
			if !slabContains(q.Input, k) {
				return true
			}
			kp, ok := mapKey(q.Extraction, k, nil)
			if !ok {
				return true
			}
			var kb int
			if kb, err = p.Partition(kp); err != nil {
				return false
			}
			counts[i][kb]++
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	g := &Graph{SplitToKB: make([][]int, len(splits)), KBToSplits: make([][]int, r), ExpectedCount: make([]int64, r)}
	for i := range splits {
		for kb, n := range counts[i] {
			if n > 0 {
				g.SplitToKB[i] = append(g.SplitToKB[i], kb)
				g.ExpectedCount[kb] += n
			}
		}
	}
	for kb := 0; kb < r; kb++ {
		for i := range splits {
			if counts[i][kb] > 0 {
				g.KBToSplits[kb] = append(g.KBToSplits[kb], i)
			}
		}
	}
	return g, nil
}

// FuzzDependencyGraph checks Build against referenceGraph over random
// rank-1–4 inputs at non-zero corners, dense and strided extraction
// shapes, row-band splits of a dataset larger than the input (so some
// bands miss the input, and under a leading-dimension stride some lie
// wholly in gaps), and every partitioner a plan builds: partition+ with
// no live mask, a random one and a periodically gapped one, and stock
// modulo under the tile-index and corner-in-K encodings.
func FuzzDependencyGraph(f *testing.F) {
	// rank, shape×4, es×4, gap×4, strided, corner×4, margins, split rows,
	// partitioner, reducers, max skew, mask
	f.Add([]byte{0, 40, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 6, 0, 3, 0, 0})
	f.Add([]byte{1, 8, 7, 0, 0, 1, 2, 0, 0, 2, 1, 0, 0, 1, 1, 2, 0, 0, 10, 0, 1, 4, 3, 17})
	f.Add([]byte{0, 16, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 2, 2, 0, 1})
	f.Add([]byte{2, 5, 6, 4, 0, 1, 2, 3, 0, 1, 0, 2, 0, 1, 2, 1, 3, 0, 0x15, 2, 3, 5, 0, 0})
	f.Add([]byte{2, 7, 3, 5, 0, 3, 1, 2, 0, 0, 0, 0, 0, 0, 4, 0, 2, 0, 0x3f, 3, 4, 3, 0, 0})
	f.Add([]byte{3, 4, 3, 3, 2, 1, 2, 1, 1, 1, 0, 1, 0, 1, 1, 2, 0, 1, 0x55, 1, 1, 5, 7, 99})
	f.Add([]byte{3, 6, 2, 3, 4, 2, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xaa, 4, 4, 4, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 24 {
			return
		}
		rank := int(b[0])%4 + 1
		corner, shape := make(coords.Coord, rank), make(coords.Shape, rank)
		es, stride := make(coords.Shape, rank), make(coords.Shape, rank)
		dataset := coords.Slab{Corner: make(coords.Coord, rank), Shape: make(coords.Shape, rank)}
		extent := int64(9) // per dimension; a rank-1 input gets a longer line
		if rank == 1 {
			extent = 64
		}
		for d := 0; d < rank; d++ {
			shape[d] = int64(b[1+d])%extent + 1
			es[d] = int64(b[5+d])%5 + 1
			stride[d] = es[d] + int64(b[9+d])%3
			corner[d] = int64(b[14+d]) % 5
			dataset.Shape[d] = corner[d] + shape[d] + int64(b[18]>>(2*d))%4
		}
		q := &query.Query{Operator: "sum", Variable: "v", Input: coords.Slab{Corner: corner, Shape: shape},
			Extraction: mustExtraction(es, nil)}
		if b[13]&1 != 0 {
			q.Extraction = mustExtraction(es, stride)
		}
		space, err := q.IntermediateSpace()
		if err != nil {
			return // the whole input sits in stride gaps: no keyspace
		}
		splits := rowSplits(dataset, int64(b[19])%dataset.Shape[0]+1)
		reducers, maxSkew := int(b[21])%6+1, int64(b[22])%20
		var p partition.Partitioner
		switch b[20] % 5 {
		case 0, 1, 2:
			var live []bool
			if b[20]%5 > 0 {
				live = make([]bool, space.Shape[0])
				rng := rand.New(rand.NewSource(int64(b[23])))
				period := int64(b[23])%3 + 1
				for row := range live {
					if b[20]%5 == 1 {
						live[row] = rng.Intn(2) == 0
					} else {
						live[row] = int64(row)/period%2 == 0
					}
				}
			}
			p, err = partition.NewPartitionPlus(space, reducers, maxSkew, live)
		case 3:
			p, err = partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
		default:
			p, err = partition.NewModulo(reducers, partition.CornerInKEncoding{InputSpace: dataset.Shape, Extraction: q.Extraction})
		}
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceGraph(q, splits, p)
		g, err := Build(q, splits, p)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v over %v: Build error %v, reference error %v", q, splits, err, wantErr)
		}
		if err != nil {
			return
		}
		same := func(x, y [][]int) bool { return slices.EqualFunc(x, y, slices.Equal[[]int]) }
		if !same(g.SplitToKB, want.SplitToKB) || !same(g.KBToSplits, want.KBToSplits) || !slices.Equal(g.ExpectedCount, want.ExpectedCount) {
			t.Fatalf("%v over splits of %d rows under %T:\nBuild     %v %v %v\nreference %v %v %v", q, splits[0].Shape[0], p,
				g.SplitToKB, g.KBToSplits, g.ExpectedCount, want.SplitToKB, want.KBToSplits, want.ExpectedCount)
		}
	})
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
