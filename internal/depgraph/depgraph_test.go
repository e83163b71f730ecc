package depgraph

import (
	"math/rand"
	"reflect"
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
	if g.NumSplits() != 4 || g.NumKeyblocks() != 4 {
		t.Fatalf("graph %dx%d", g.NumSplits(), g.NumKeyblocks())
	}
	for l := 0; l < 4; l++ {
		deps := g.Deps(l)
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
		if len(g.Deps(l)) != 4 {
			t.Fatalf("keyblock %d deps = %v, want all 4 (global dependency)", l, g.Deps(l))
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
	if g.TotalPoints() != q.Input.Size() {
		t.Fatalf("TotalPoints = %d, want %d", g.TotalPoints(), q.Input.Size())
	}
	// Balanced alignment: each keyblock receives a quarter of the input.
	want := q.Input.Size() / 4
	for l, c := range g.ExpectedCount {
		if c != want {
			t.Fatalf("keyblock %d expects %d pairs, want %d", l, c, want)
		}
	}
	for i, n := range g.SplitPoints {
		if n != splits[i].Size() {
			t.Fatalf("split %d points = %d, want %d", i, n, splits[i].Size())
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
	if g.SplitPoints[2] != 0 || g.SplitPoints[3] != 0 {
		t.Fatal("out-of-query splits counted points")
	}
	if g.TotalPoints() != q.Input.Size() {
		t.Fatalf("TotalPoints = %d", g.TotalPoints())
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
	if g.TotalPoints() != 8 {
		t.Fatalf("TotalPoints = %d, want 8 (gaps excluded)", g.TotalPoints())
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
	b := NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 1)
	}
	g := b.Graph()
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
	b := NewBuilder(4, 2)
	b.Add(3, 0, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1)
	if order := b.Graph().MapOrder(nil); !reflect.DeepEqual(order, []int{1, 3, 0, 2}) {
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
	if g.TotalPoints() != q.Input.Size() {
		t.Fatalf("TotalPoints = %d, want %d", g.TotalPoints(), q.Input.Size())
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
			Extraction: coords.MustExtraction(coords.NewShape(1+int64(r.Intn(4)), 1+int64(r.Intn(3))), nil),
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
			Extraction: coords.MustExtraction(coords.NewShape(es, 1), nil),
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
		return g1.TotalPoints() == g2.TotalPoints() && g1.TotalPoints() == q.Input.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
