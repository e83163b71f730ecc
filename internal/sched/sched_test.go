package sched

import (
	"testing"

	"sidr/internal/coords"
	"sidr/internal/depgraph"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// alignedGraph builds a dependency graph where split i feeds exactly
// keyblock i (4 splits, 4 keyblocks).
func alignedGraph(t *testing.T) *depgraph.Graph {
	t.Helper()
	q, err := query.Parse("avg t[0,0 : 16,4] es {4,4}")
	if err != nil {
		t.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := partition.NewPartitionPlus(space, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := q.Input.SplitDim(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 4; l++ {
		deps := g.Deps(l)
		if len(deps) != 1 || deps[0] != l {
			t.Fatalf("fixture not aligned: deps(%d) = %v", l, deps)
		}
	}
	return g
}

func fourMaps(hosts ...string) []MapInfo {
	out := make([]MapInfo, 4)
	for i := range out {
		if i < len(hosts) && hosts[i] != "" {
			out[i] = MapInfo{Hosts: []string{hosts[i]}}
		}
	}
	return out
}

func TestHadoopReduceOrder(t *testing.T) {
	h := NewHadoop(fourMaps(), 3)
	for want := 0; want < 3; want++ {
		if got := h.NextReduce(); got != want {
			t.Fatalf("NextReduce = %d, want %d", got, want)
		}
	}
	if h.NextReduce() != -1 {
		t.Fatal("exhausted scheduler returned a reduce")
	}
	if h.PendingReduces() != 0 {
		t.Fatalf("PendingReduces = %d", h.PendingReduces())
	}
}

func TestHadoopMapLocality(t *testing.T) {
	h := NewHadoop(fourMaps("a", "b", "a", "b"), 1)
	if got := h.NextMap("b"); got != 1 {
		t.Fatalf("NextMap(b) = %d, want 1 (node-local)", got)
	}
	if got := h.NextMap("b"); got != 3 {
		t.Fatalf("NextMap(b) = %d, want 3 (node-local)", got)
	}
	// b's local work is exhausted; falls back to lowest pending id.
	if got := h.NextMap("b"); got != 0 {
		t.Fatalf("NextMap(b) = %d, want 0 (fallback)", got)
	}
	if got := h.NextMap("a"); got != 2 {
		t.Fatalf("NextMap(a) = %d, want 2", got)
	}
	if h.NextMap("a") != -1 || h.PendingMaps() != 0 {
		t.Fatal("maps not exhausted cleanly")
	}
}

func TestHadoopMapNoDoubleDispense(t *testing.T) {
	h := NewHadoop(fourMaps("a", "a", "a", "a"), 1)
	seen := map[int]bool{}
	for {
		id := h.NextMap("a")
		if id < 0 {
			break
		}
		if seen[id] {
			t.Fatalf("map %d dispensed twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("dispensed %d maps", len(seen))
	}
}

func TestSIDRValidation(t *testing.T) {
	g := alignedGraph(t)
	if _, err := NewSIDR(fourMaps(), nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewSIDR(make([]MapInfo, 3), g, nil); err == nil {
		t.Fatal("map count mismatch accepted")
	}
	if _, err := NewSIDR(fourMaps(), g, []int{0, 1}); err == nil {
		t.Fatal("short priority accepted")
	}
	if _, err := NewSIDR(fourMaps(), g, []int{0, 1, 2, 2}); err == nil {
		t.Fatal("duplicate priority accepted")
	}
	if _, err := NewSIDR(fourMaps(), g, []int{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range priority accepted")
	}
}

func TestSIDRMapsGatedByReduces(t *testing.T) {
	g := alignedGraph(t)
	s, err := NewSIDR(fourMaps(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No reduce scheduled yet: no map is eligible (§3.3).
	if got := s.NextMap("a"); got != -1 {
		t.Fatalf("map %d eligible before any reduce", got)
	}
	if r := s.NextReduce(); r != 0 {
		t.Fatalf("NextReduce = %d", r)
	}
	// Scheduling reduce 0 makes exactly its dependency (split 0)
	// eligible.
	if got := s.NextMap("a"); got != 0 {
		t.Fatalf("NextMap = %d, want 0", got)
	}
	if got := s.NextMap("a"); got != -1 {
		t.Fatalf("map %d eligible without a scheduled dependent reduce", got)
	}
	if r := s.NextReduce(); r != 1 {
		t.Fatalf("NextReduce = %d", r)
	}
	if got := s.NextMap("a"); got != 1 {
		t.Fatalf("NextMap = %d, want 1", got)
	}
	if s.PendingMaps() != 2 || s.PendingReduces() != 2 {
		t.Fatalf("pending = %d maps, %d reduces", s.PendingMaps(), s.PendingReduces())
	}
}

func TestSIDRPriorityOrder(t *testing.T) {
	// Computational steering (§3.4): prioritising keyblock 3 schedules
	// its reduce — and thus its maps — first.
	g := alignedGraph(t)
	s, err := NewSIDR(fourMaps(), g, []int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.NextReduce(); r != 3 {
		t.Fatalf("NextReduce = %d, want 3", r)
	}
	if got := s.NextMap("x"); got != 3 {
		t.Fatalf("NextMap = %d, want 3 (dep of prioritised keyblock)", got)
	}
	if r := s.NextReduce(); r != 1 {
		t.Fatalf("NextReduce = %d, want 1", r)
	}
}

func TestSIDRLocalityStillPreferred(t *testing.T) {
	g := alignedGraph(t)
	s, err := NewSIDR(fourMaps("a", "b", "a", "b"), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.NextReduce() // unlock map 0 (local to a)
	s.NextReduce() // unlock map 1 (local to b)
	if got := s.NextMap("b"); got != 1 {
		t.Fatalf("NextMap(b) = %d, want local eligible map 1", got)
	}
	// Host b has no more local eligible work; falls back to map 0.
	if got := s.NextMap("b"); got != 0 {
		t.Fatalf("NextMap(b) = %d, want fallback 0", got)
	}
}

func TestSIDRLocalIneligibleDoesNotBlockDeeperLocal(t *testing.T) {
	// Host a holds maps 0 and 2. Only reduce 2's map is eligible; the
	// ineligible local map 0 must not hide eligible local map 2.
	g := alignedGraph(t)
	s, err := NewSIDR(fourMaps("a", "b", "a", "b"), g, []int{2, 0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	s.NextReduce() // unlock map 2
	if got := s.NextMap("a"); got != 2 {
		t.Fatalf("NextMap(a) = %d, want 2", got)
	}
}

// The job loop's realisation of the SIDR policy above is a static Map
// order off the same graph (depgraph.Graph.MapOrder); it is held here
// against the fixtures the scheduler itself is tested on.
func TestDependencyDrivenMapOrder(t *testing.T) {
	g := alignedGraph(t)
	order := g.MapOrder([]int{2, 0, 3, 1})
	want := []int{2, 0, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Default priority yields keyblock order.
	order = g.MapOrder(nil)
	for i := 0; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("default order = %v", order)
		}
	}
}

func TestDependencyDrivenMapOrderCoversUnreferencedSplits(t *testing.T) {
	// Splits outside the query input appear in no I_ℓ but must still be
	// ordered (they run as no-ops).
	q, err := query.Parse("avg t[0,0 : 8,4] es {4,4}")
	if err != nil {
		t.Fatal(err)
	}
	dataset := coords.MustSlab(coords.NewCoord(0, 0), coords.NewShape(16, 4))
	splits, err := dataset.SplitDim(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	space, _ := q.IntermediateSpace()
	pp, _ := partition.NewPartitionPlus(space, 2, 1)
	g, err := depgraph.Build(q, splits, pp)
	if err != nil {
		t.Fatal(err)
	}
	order := g.MapOrder(nil)
	if len(order) != 4 {
		t.Fatalf("order %v misses splits", order)
	}
	seen := map[int]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %d in %v", id, order)
		}
		seen[id] = true
	}
}
