package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
)

func originSlab(shape ...int64) coords.Slab {
	s := coords.NewShape(shape...)
	return coords.Slab{Corner: make(coords.Coord, s.Rank()), Shape: s}
}

func TestModuloValidation(t *testing.T) {
	enc := TileIndexEncoding{Space: originSlab(10)}
	if _, err := NewModulo(0, enc); err == nil {
		t.Fatal("zero reducers accepted")
	}
	if _, err := NewModulo(2, nil); err == nil {
		t.Fatal("nil encoding accepted")
	}
}

func TestModuloTileIndex(t *testing.T) {
	space := originSlab(4, 5)
	m, err := NewModulo(3, TileIndexEncoding{Space: space})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumKeyblocks() != 3 {
		t.Fatalf("NumKeyblocks = %d", m.NumKeyblocks())
	}
	counts := make([]int, 3)
	space.Each(func(kp coords.Coord) bool {
		idx, err := m.Partition(kp)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
		return true
	})
	// 20 keys across 3 blocks: 7/7/6.
	if counts[0]+counts[1]+counts[2] != 20 {
		t.Fatalf("counts = %v", counts)
	}
	for _, c := range counts {
		if c < 6 || c > 7 {
			t.Fatalf("modulo over dense index should balance: %v", counts)
		}
	}
	if _, err := m.Partition(coords.NewCoord(99, 0)); err == nil {
		t.Fatal("out-of-space key accepted")
	}
}

func TestCornerInKEncodingSkewPathology(t *testing.T) {
	// §4.3: with the corner-in-K encoding and an even extraction stride,
	// every encoded key is even, so an even Reduce count starves all
	// odd-numbered Reduce tasks.
	input := coords.NewShape(16, 16)
	ex := mustExtraction(coords.NewShape(2, 2), nil)
	enc := CornerInKEncoding{InputSpace: input, Extraction: ex}
	m, err := NewModulo(2, enc)
	if err != nil {
		t.Fatal(err)
	}
	kspace := originSlab(8, 8)
	counts := make([]int, 2)
	kspace.Each(func(kp coords.Coord) bool {
		idx, err := m.Partition(kp)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
		return true
	})
	if counts[1] != 0 {
		t.Fatalf("expected all keys on even reducer, got %v", counts)
	}
	if counts[0] != 64 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCornerInKEncodingName(t *testing.T) {
	enc := CornerInKEncoding{}
	if enc.Name() != "corner-in-K" {
		t.Fatal("encoding name changed")
	}
	if (TileIndexEncoding{}).Name() != "tile-index" {
		t.Fatal("encoding name changed")
	}
}

func TestPartitionPlusValidation(t *testing.T) {
	if _, err := NewPartitionPlus(originSlab(10), 0, 0, nil); err == nil {
		t.Fatal("zero reducers accepted")
	}
	if _, err := NewPartitionPlus(coords.Slab{}, 2, 0, nil); err == nil {
		t.Fatal("empty space accepted")
	}
}

func TestPartitionPlusPaperGeometry(t *testing.T) {
	// Query 1: K'^T = {3600, 10, 20, 5}, 22 reducers, skew bound 10000.
	space := originSlab(3600, 10, 20, 5)
	pp, err := NewPartitionPlus(space, 22, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Blocks) != 22 {
		t.Fatalf("%d blocks", len(pp.Blocks))
	}
	// Tile should be {10,10,20,5}: one K' row is 1000 keys, 10 rows fit
	// in the 10000 bound.
	if !slices.Equal(pp.TileShape, coords.NewShape(10, 10, 20, 5)) {
		t.Fatalf("tile = %v", pp.TileShape)
	}
	var total int64
	for i, b := range pp.Blocks {
		total += b.Size()
		if i > 0 && b.Lo != pp.Blocks[i-1].Hi {
			t.Fatalf("blocks %d and %d not contiguous", i-1, i)
		}
		if !b.Rect && b.Size() > 0 {
			t.Fatalf("block %d not rectangular", i)
		}
	}
	if total != space.Size() {
		t.Fatalf("blocks cover %d keys of %d", total, space.Size())
	}
	// §3.1: keyblocks differ by at most one instance of the chosen shape.
	if skew := pp.TileCountSkew(); skew > 1 {
		t.Fatalf("tile-count skew %d exceeds 1", skew)
	}
	// 360 instances across 22 reducers: 8 blocks of 17 tiles then 14 of
	// 16 tiles.
	sizes := pp.BlockSizes()
	for i, want := range []int64{170000, 170000, 160000} {
		idx := []int{0, 7, 8}[i]
		if sizes[idx] != want {
			t.Fatalf("block %d size %d, want %d (all: %v)", idx, sizes[idx], want, sizes)
		}
	}
}

func TestPartitionPlusLookupMatchesBlocks(t *testing.T) {
	space := originSlab(37, 7)
	pp, err := NewPartitionPlus(space, 5, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	space.Each(func(kp coords.Coord) bool {
		idx, err := pp.Partition(kp)
		if err != nil {
			t.Fatalf("Partition(%v): %v", kp, err)
		}
		off, _ := space.Linearize(kp)
		b := pp.Blocks[idx]
		if off < b.Lo || off >= b.Hi {
			t.Fatalf("key %v (off %d) assigned to block %d [%d,%d)", kp, off, idx, b.Lo, b.Hi)
		}
		return true
	})
	if _, err := pp.Partition(coords.NewCoord(99, 0)); err == nil {
		t.Fatal("out-of-space key accepted")
	}
}

func TestPartitionPlusMoreReducersThanKeys(t *testing.T) {
	space := originSlab(3)
	pp, err := NewPartitionPlus(space, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, b := range pp.Blocks {
		if b.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("%d non-empty blocks for 3 keys", nonEmpty)
	}
	for _, kp := range []coords.Coord{coords.NewCoord(0), coords.NewCoord(1), coords.NewCoord(2)} {
		if _, err := pp.Partition(kp); err != nil {
			t.Fatalf("Partition(%v): %v", kp, err)
		}
	}
}

func TestPartitionPlusContiguousOrderPreserving(t *testing.T) {
	// §3.4: partition+ preserves row-major order — keyblock indices are
	// monotone in the linearised key.
	space := originSlab(52, 50)
	pp, err := NewPartitionPlus(space, 4, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for off := int64(0); off < space.Size(); off++ {
		kp, _ := space.Delinearize(off)
		idx, err := pp.Partition(kp)
		if err != nil {
			t.Fatal(err)
		}
		if idx < prev {
			t.Fatalf("keyblock index decreased at offset %d", off)
		}
		prev = idx
	}
}

func TestQuickPartitionPlusInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		sh := make(coords.Shape, rank)
		for i := range sh {
			sh[i] = 1 + r.Int63n(20)
		}
		space := coords.Slab{Corner: make(coords.Coord, rank), Shape: sh}
		reducers := 1 + r.Intn(10)
		maxSkew := 1 + r.Int63n(50)
		pp, err := NewPartitionPlus(space, reducers, maxSkew, nil)
		if err != nil {
			return false
		}
		// Coverage, contiguity, balance.
		var total int64
		prevHi := int64(0)
		for _, b := range pp.Blocks {
			if b.Lo != prevHi && b.Size() > 0 {
				// Empty trailing blocks may repeat [total,total).
				if !(b.Lo >= prevHi) {
					return false
				}
			}
			if b.Size() > 0 {
				if b.Lo != prevHi {
					return false
				}
				prevHi = b.Hi
			}
			total += b.Size()
		}
		if total != space.Size() || prevHi != space.Size() {
			return false
		}
		// Keyblocks differ by at most one tile instance.
		if pp.TileCountSkew() > 1 {
			return false
		}
		// Every key maps into the block containing its offset.
		for i := 0; i < 20; i++ {
			off := r.Int63n(space.Size())
			kp, _ := space.Delinearize(off)
			idx, err := pp.Partition(kp)
			if err != nil {
				return false
			}
			if off < pp.Blocks[idx].Lo || off >= pp.Blocks[idx].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	pp, _ := NewPartitionPlus(originSlab(4), 2, 0, nil)
	if pp.Name() != "partition+" {
		t.Fatal("name changed")
	}
	m, _ := NewModulo(2, TileIndexEncoding{Space: originSlab(4)})
	if m.Name() != "modulo/tile-index" {
		t.Fatal("name changed")
	}
}

// todaysLayouts pins partition+'s uniform layout — tile shape and every
// keyblock's upper bound — for the spaces above plus the prune_filter
// bench space, as computed before the live mask existed. A nil or
// all-live mask must reproduce each one cut for cut.
var todaysLayouts = []struct {
	shape   []int64
	r       int
	maxSkew int64
	tile    []int64
	his     []int64
}{
	{[]int64{3600, 10, 20, 5}, 22, 10000, []int64{10, 10, 20, 5}, []int64{170000, 340000, 510000, 680000, 850000, 1020000, 1190000, 1360000, 1520000, 1680000, 1840000, 2000000, 2160000, 2320000, 2480000, 2640000, 2800000, 2960000, 3120000, 3280000, 3440000, 3600000}},
	{[]int64{37, 7}, 5, 14, []int64{2, 7}, []int64{56, 112, 168, 224, 259}},
	{[]int64{3}, 10, 0, []int64{1}, []int64{1, 2, 3, 3, 3, 3, 3, 3, 3, 3}},
	{[]int64{52, 50}, 4, 200, []int64{4, 50}, []int64{800, 1400, 2000, 2600}},
	{[]int64{4}, 2, 0, []int64{2}, []int64{2, 4}},
	{[]int64{2, 7}, 3, 3, []int64{1, 3}, []int64{6, 12, 14}},
	{[]int64{512, 16, 8}, 16, 0, []int64{32, 16, 8}, []int64{4096, 8192, 12288, 16384, 20480, 24576, 28672, 32768, 36864, 40960, 45056, 49152, 53248, 57344, 61440, 65536}},
}

func TestPartitionPlusAllLiveIsTodaysLayout(t *testing.T) {
	for _, c := range todaysLayouts {
		space := originSlab(c.shape...)
		allLive := make([]bool, c.shape[0])
		for i := range allLive {
			allLive[i] = true
		}
		for _, live := range [][]bool{nil, allLive} {
			pp, err := NewPartitionPlus(space, c.r, c.maxSkew, live)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pp.TileShape, coords.NewShape(c.tile...)) {
				t.Fatalf("%v r=%d: tile %v, want %v", c.shape, c.r, pp.TileShape, c.tile)
			}
			lo := int64(0)
			for i, b := range pp.Blocks {
				if b.Lo != lo || b.Hi != c.his[i] {
					t.Fatalf("%v r=%d (all-live mask %v): block %d [%d,%d), want [%d,%d)",
						c.shape, c.r, live != nil, i, b.Lo, b.Hi, lo, c.his[i])
				}
				lo = b.Hi
			}
		}
	}
}

func TestPartitionPlusLiveMaskLength(t *testing.T) {
	if _, err := NewPartitionPlus(originSlab(4, 2), 2, 0, make([]bool, 3)); err == nil {
		t.Fatal("live mask of the wrong length accepted")
	}
}

// TestPartitionPlusLiveBand is the pruned-filter shape: one band of live
// rows in a large space. Every keyblock gets one live tile instance of
// the band instead of the band landing whole in one keyblock.
func TestPartitionPlusLiveBand(t *testing.T) {
	space := originSlab(512, 16, 8)
	live := make([]bool, 512)
	for row := 96; row < 128; row++ {
		live[row] = true
	}
	pp, err := NewPartitionPlus(space, 16, 0, live)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pp.TileShape, coords.NewShape(2, 16, 8)) {
		t.Fatalf("tile %v, want the live share {2,16,8}", pp.TileShape)
	}
	rowSize := int64(16 * 8)
	for i, b := range pp.Blocks {
		// Keyblock 0 takes the dead prefix, the last one the dead suffix.
		wantLo, wantHi := int64(96+2*i)*rowSize, int64(96+2*(i+1))*rowSize
		if i == 0 {
			wantLo = 0
		}
		if i == 15 {
			wantHi = space.Size()
		}
		if b.Lo != wantLo || b.Hi != wantHi {
			t.Fatalf("block %d [%d,%d), want [%d,%d)", i, b.Lo, b.Hi, wantLo, wantHi)
		}
	}
	checkLiveLayout(t, space, 16, 0, live)
}

// FuzzPartitionPlusLive checks partition+'s invariants over random ranks,
// shapes, reducer counts, skew bounds and live masks: nil, all dead, one
// row, gapped bands and random rows.
func FuzzPartitionPlusLive(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		for mode := uint8(0); mode < 5; mode++ {
			f.Add(seed, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(3)
		space := coords.Slab{Corner: make(coords.Coord, rank), Shape: make(coords.Shape, rank)}
		for i := range space.Shape {
			space.Corner[i] = r.Int63n(5)
			space.Shape[i] = 1 + r.Int63n(20)
		}
		reducers := 1 + r.Intn(12)
		maxSkew := r.Int63n(60) // 0 selects the default
		rows := space.Shape[0]
		var live []bool
		switch mode % 5 {
		case 1: // all dead
			live = make([]bool, rows)
		case 2: // one row
			live = make([]bool, rows)
			live[r.Int63n(rows)] = true
		case 3: // several gapped bands
			live = make([]bool, rows)
			for b := 0; b < 1+r.Intn(4); b++ {
				lo := r.Int63n(rows)
				for row := lo; row < min(rows, lo+1+r.Int63n(4)); row++ {
					live[row] = true
				}
			}
		case 4: // random rows
			live = make([]bool, rows)
			for i := range live {
				live[i] = r.Intn(2) == 0
			}
		}
		checkLiveLayout(t, space, reducers, maxSkew, live)
	})
}

// checkLiveLayout asserts partition+'s invariants for one live mask:
// keyblocks cover the space contiguously, Partition agrees with Lo/Hi for
// every key, keyblocks differ by at most one live tile instance, a
// non-empty keyblock after the first starts on a live instance, and an
// all-live mask reproduces the nil-mask layout.
func checkLiveLayout(t *testing.T, space coords.Slab, reducers int, maxSkew int64, live []bool) {
	t.Helper()
	pp, err := NewPartitionPlus(space, reducers, maxSkew, live)
	if err != nil {
		t.Fatal(err)
	}
	total := space.Size()
	if len(pp.Blocks) != reducers {
		t.Fatalf("%d blocks for %d reducers", len(pp.Blocks), reducers)
	}
	lo := int64(0)
	for i, b := range pp.Blocks {
		if b.Index != i || b.Lo != lo || b.Hi < b.Lo {
			t.Fatalf("block %d [%d,%d) does not continue at %d", i, b.Lo, b.Hi, lo)
		}
		lo = b.Hi
	}
	if lo != total {
		t.Fatalf("blocks cover [0,%d) of [0,%d)", lo, total)
	}
	space.Each(func(kp coords.Coord) bool {
		idx, err := pp.Partition(kp)
		if err != nil {
			t.Fatalf("Partition(%v): %v", kp, err)
		}
		off, _ := space.Linearize(kp)
		if b := pp.Blocks[idx]; off < b.Lo || off >= b.Hi {
			t.Fatalf("key %v (offset %d) in block %d [%d,%d)", kp, off, idx, b.Lo, b.Hi)
		}
		return true
	})

	// Count live instances per keyblock from the mask directly.
	tileSize := pp.TileShape.Size()
	rowSize := total / space.Shape[0]
	rowLive := func(row int64) bool { return live == nil || live[row] }
	instLive := func(j int64) bool {
		for off := j * tileSize; off < min((j+1)*tileSize, total); off++ {
			if rowLive(off / rowSize) {
				return true
			}
		}
		return false
	}
	var fewest, most int64 = -1, 0
	for i, b := range pp.Blocks {
		if i > 0 && b.Size() > 0 && (b.Lo%tileSize != 0 || !instLive(b.Lo/tileSize)) {
			t.Fatalf("block %d [%d,%d) does not start on a live tile instance (tile %v)", i, b.Lo, b.Hi, pp.TileShape)
		}
		var n int64
		for j := b.Lo / tileSize; j*tileSize < b.Hi; j++ {
			if instLive(j) {
				n++
			}
		}
		if fewest < 0 || n < fewest {
			fewest = n
		}
		most = max(most, n)
	}
	if most-fewest > 1 {
		t.Fatalf("live instances per keyblock range over [%d,%d] (tile %v, mask %v)", fewest, most, pp.TileShape, live)
	}
	if skew := pp.TileCountSkew(); skew > 1 {
		t.Fatalf("TileCountSkew %d", skew)
	}

	allLive := make([]bool, space.Shape[0])
	for i := range allLive {
		allLive[i] = true
	}
	uniform, err := NewPartitionPlus(space, reducers, maxSkew, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewPartitionPlus(space, reducers, maxSkew, allLive)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(explicit.TileShape, uniform.TileShape) || !reflect.DeepEqual(explicit.Blocks, uniform.Blocks) {
		t.Fatalf("all-live mask layout %v differs from the nil-mask layout %v", explicit.Blocks, uniform.Blocks)
	}
}

// mustExtraction is coords.NewExtraction that panics on error.
func mustExtraction(shape, stride coords.Shape) coords.Extraction {
	e, err := coords.NewExtraction(shape, stride)
	if err != nil {
		panic(err)
	}
	return e
}

// BlockSizes returns the number of K' keys in each keyblock, in order —
// the key-distribution guarantee the skew experiments measure.
func (p *partitionPlus) BlockSizes() []int64 {
	out := make([]int64, len(p.Blocks))
	for i, b := range p.Blocks {
		out[i] = b.Size()
	}
	return out
}

// TileCountSkew returns the difference in live tile-instance counts
// between the keyblocks holding the most and the fewest, over non-empty
// keyblocks; §3.1 guarantees this is at most one. Instances are counted
// afresh from the keyblock bounds and the live rows.
func (p *partitionPlus) TileCountSkew() int64 {
	tileSize := p.TileShape.Size()
	var lo, hi int64 = -1, 0
	for _, b := range p.Blocks {
		if b.Size() == 0 {
			continue
		}
		var n int64
		for j := b.Lo / tileSize; j*tileSize < b.Hi; j++ {
			if p.instanceLive(j) {
				n++
			}
		}
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo < 0 {
		return 0
	}
	return hi - lo
}
