package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"sidr/internal/coords"
)

// encodeSpillV3 is a test helper that must never fail for valid inputs.
func encodeSpillV3(t testing.TB, rank int, sourceCount int64, pairs []Pair, opts V3Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSpillV3(&buf, rank, sourceCount, pairs, opts); err != nil {
		t.Fatalf("WriteSpillV3: %v", err)
	}
	return buf.Bytes()
}

// v3TestPairs builds a deterministic multi-block workload covering the
// codec's shapes: aggregate-only values, sampled values, special floats.
func v3TestPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		v := Value{Sum: float64(i) * 1.5, SumSq: float64(i * i), Min: -float64(i), Max: float64(i), Count: int64(i + 1)}
		if i%3 == 0 {
			v.Samples = []float64{float64(i) / 7, math.Inf(1)}
		}
		if i%11 == 0 {
			v.Max = math.NaN()
		}
		pairs[i] = Pair{Key: coords.NewCoord(int64(i), int64(i*2), -int64(i)), Value: v}
	}
	return pairs
}

// valueBitsEqual compares every Value field bit for bit (NaN payloads
// and signed zeros included); nil and empty Samples are the same.
func valueBitsEqual(a, b Value) bool {
	fa, fb := [4]float64{a.Sum, a.SumSq, a.Min, a.Max}, [4]float64{b.Sum, b.SumSq, b.Min, b.Max}
	for c := range fa {
		if math.Float64bits(fa[c]) != math.Float64bits(fb[c]) {
			return false
		}
	}
	if a.Count != b.Count || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i, x := range a.Samples {
		if math.Float64bits(x) != math.Float64bits(b.Samples[i]) {
			return false
		}
	}
	return true
}

// pairsEqual reports whether two rank-rank pair lists hold the same
// keys and bit-identical values in the same order.
func pairsEqual(t *testing.T, rank int, a, b []Pair) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != rank || !a[i].Key.Equal(b[i].Key) || !valueBitsEqual(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestSpillV3RoundTrip: every framing (single block, multi block,
// remainder block, empty) decodes back to the written pairs with the
// header intact.
func TestSpillV3RoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts V3Options
	}{
		{name: "empty", n: 0, opts: V3Options{}},
		{name: "single-block", n: 10, opts: V3Options{}},
		{name: "multi-block", n: 100, opts: V3Options{BlockPairs: 16}},
		{name: "exact-blocks", n: 64, opts: V3Options{BlockPairs: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pairs := v3TestPairs(tc.n)
			data := encodeSpillV3(t, 3, int64(tc.n)*10+7, pairs, tc.opts)
			h, got, err := ReadSpill(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadSpill: %v", err)
			}
			if h.Rank != 3 || h.SourceCount != int64(tc.n)*10+7 || h.Pairs != tc.n {
				t.Fatalf("header = %+v", h)
			}
			if !pairsEqual(t, 3, pairs, got) {
				t.Fatal("decoded pairs differ from written pairs")
			}
		})
	}
}

// TestSpillBlocksAreFramedByBytes: a pair weighs what its samples do, so a
// block closes on payload size as well as on pair count — three pairs of
// 200 000 samples are three blocks, each far below the reader's cap, not
// one 4.8 MB block — and what the writer framed its readers accept.
func TestSpillBlocksAreFramedByBytes(t *testing.T) {
	const samples = 200000
	pairs := make([]Pair, 3)
	for i := range pairs {
		var v Value
		for s := 0; s < samples; s++ {
			v.Add(float64(i*samples+s)*0.37-1e4, true)
		}
		pairs[i] = Pair{Key: coords.NewCoord(int64(i), 2), Value: v}
	}
	data := encodeSpillV3(t, 2, 3*samples, pairs, V3Options{})
	h, got, err := ReadSpill(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSpill: %v", err)
	}
	if h.Blocks != 3 || h.Pairs != 3 || h.SourceCount != 3*samples {
		t.Fatalf("header %+v, want 3 pairs in 3 blocks", h)
	}
	if !pairsEqual(t, 2, pairs, got) {
		t.Fatal("decoded pairs differ from written pairs")
	}
	// Light pairs are still framed by count.
	if h, _, err := ReadSpill(bytes.NewReader(encodeSpillV3(t, 3, 1, v3TestPairs(2*defaultBlockPairs+1), V3Options{}))); err != nil || h.Blocks != 3 {
		t.Fatalf("%d light pairs: header %+v, %v, want 3 blocks", 2*defaultBlockPairs+1, h, err)
	}
}

// TestKeyRunsCarryEveryKeyShape: the one key layout round-trips what a
// Coord can hold — every rank, negative and sparse coordinates, a join's
// trailing side coordinate, repeated keys,
// unsorted input, steps that wrap int64 (a box whose linear size no
// int64 holds) — across block boundaries that cut a repeated key, with
// pairs of one key sharing one decoded slice.
func TestKeyRunsCarryEveryKeyShape(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := map[string][]coords.Coord{
		"extremes": {
			coords.NewCoord(math.MinInt64, math.MaxInt64), coords.NewCoord(math.MaxInt64, math.MinInt64),
			coords.NewCoord(math.MaxInt64, math.MinInt64), coords.NewCoord(0, -1), coords.NewCoord(math.MinInt64, 0),
		},
		"unsorted": {coords.NewCoord(5), coords.NewCoord(3), coords.NewCoord(3), coords.NewCoord(4), coords.NewCoord(-9)},
	}
	for rank := 1; rank <= coords.MaxRank; rank++ {
		var sparse, dense, joined []coords.Coord
		key := make(coords.Coord, rank)
		for i := 0; i < 40; i++ {
			key = key.Clone()
			key[r.Intn(rank)] += r.Int63n(1<<40) - 1<<39
			for m := r.Intn(3); m >= 0; m-- {
				sparse = append(sparse, key)
			}
		}
		// A dense row-major walk of a box 3 wide in every dimension
		// (capped), each key repeated, the join variant tagging a side.
		box := coords.Slab{Corner: make(coords.Coord, rank), Shape: make(coords.Shape, rank)}
		for d := range box.Shape {
			box.Corner[d], box.Shape[d] = int64(d)-2, 1
			if d >= rank-3 {
				box.Shape[d] = 3
			}
		}
		cur := box.Corner.Clone()
		for i := int64(0); i < box.Size(); i++ {
			k := cur.Clone()
			dense = append(dense, k, k, k)
			if rank < coords.MaxRank {
				joined = append(joined, append(k.Clone(), 0), append(k.Clone(), 1))
			}
			box.Advance(cur)
		}
		cases[fmt.Sprintf("sparse-rank-%d", rank)] = sparse
		cases[fmt.Sprintf("dense-rank-%d", rank)] = dense
		if joined != nil {
			cases[fmt.Sprintf("join-rank-%d", rank+1)] = joined
		}
	}
	for name, keys := range cases {
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{Key: k, Value: NewValue(float64(i), true)}
		}
		rank := len(keys[0])
		for _, opts := range []V3Options{{}, {BlockPairs: 7}} {
			data := encodeSpillV3(t, rank, int64(len(pairs)), pairs, opts)
			_, got, err := ReadSpill(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !pairsEqual(t, rank, pairs, got) {
				t.Fatalf("%s %+v: decoded pairs differ", name, opts)
			}
			for i := 1; i < len(got); i++ {
				sameBlock := opts.BlockPairs == 0 || i%opts.BlockPairs != 0
				if sameBlock && got[i].Key.Equal(got[i-1].Key) && &got[i].Key[0] != &got[i-1].Key[0] {
					t.Fatalf("%s %+v: pairs %d and %d repeat a key in one block but do not share its slice", name, opts, i-1, i)
				}
			}
		}
	}
}

// TestDenseStretchCostsRunsNotKeys: a dense row-major stretch is stored
// as two runs per innermost line — the key column's size follows the
// number of lines, not the number of pairs or the rank.
func TestDenseStretchCostsRunsNotKeys(t *testing.T) {
	const lines, width, mult = 8, 16, 32 // 4096 pairs: one default block
	var pairs []Pair
	for l := int64(0); l < lines; l++ {
		for x := int64(0); x < width; x++ {
			key := coords.NewCoord(3, l, x)
			for m := 0; m < mult; m++ {
				pairs = append(pairs, Pair{Key: key, Value: NewValue(float64(m), true)})
			}
		}
	}
	data := encodeSpillV3(t, 3, int64(len(pairs)), pairs, V3Options{})
	keyBytes := len(data) - spillHeaderLen - blockHeaderLen - 8*len(pairs)
	if limit := 5 + 2*lines*5; keyBytes > limit {
		t.Fatalf("key column of %d pairs on %d lines is %d bytes, want ≤ %d (explicit keys: %d)",
			len(pairs), lines, keyBytes, limit, 3*8*len(pairs))
	}
}

// TestQuickSpillRoundTrip round-trips random ranks, pair counts,
// framings and values.
func TestQuickSpillRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rank := 1 + r.Intn(4)
		n := r.Intn(20)
		src := int64(0)
		pairs := make([]Pair, n)
		for i := range pairs {
			key := make(coords.Coord, rank)
			for d := range key {
				key[d] = r.Int63n(1000)
			}
			var v Value
			k := 1 + r.Intn(4)
			for j := 0; j < k; j++ {
				v.Add(r.NormFloat64(), r.Intn(2) == 0)
			}
			src += int64(k)
			pairs[i] = Pair{Key: key, Value: v}
		}
		opts := V3Options{BlockPairs: r.Intn(8)}
		var buf bytes.Buffer
		if err := WriteSpillV3(&buf, rank, src, pairs, opts); err != nil {
			return false
		}
		h, got, err := ReadSpill(&buf)
		return err == nil && h.SourceCount == src && len(got) == n && pairsEqual(t, rank, pairs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSpillValidation: the writer refuses ranks the reader would
// refuse and pairs whose keys disagree with the declared rank.
func TestWriteSpillValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpillV3(&buf, 0, 0, nil, V3Options{}); err == nil {
		t.Fatal("zero rank accepted")
	}
	if err := WriteSpillV3(&buf, coords.MaxRank+1, 0, nil, V3Options{}); err == nil {
		t.Fatal("rank above coords.MaxRank accepted")
	}
	if err := WriteSpillV3(&buf, 1, 0, v3TestPairs(2), V3Options{}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

// sealBlock recomputes, in place, the CRC of a single-block spill's block
// from its headers as they now read and the payload that follows them.
func sealBlock(b []byte) []byte {
	bh := b[spillHeaderLen : spillHeaderLen+blockHeaderLen]
	crc := crc32.Update(headerCRCSeed(b[:spillHeaderLen]), castagnoli, bh[0:12])
	binary.LittleEndian.PutUint32(bh[12:16], crc32.Update(crc, castagnoli, b[spillHeaderLen+blockHeaderLen:]))
	return b
}

// resealBlock rebuilds the block of a single-block spill around payload,
// with its lengths and CRC recomputed, so a case can damage what the
// checksum covers and still reach the structural checks behind it.
func resealBlock(b, payload []byte) []byte {
	out := append(append([]byte(nil), b[:spillHeaderLen+blockHeaderLen]...), payload...)
	binary.LittleEndian.PutUint32(out[spillHeaderLen+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[spillHeaderLen+8:], uint32(len(payload)))
	return sealBlock(out)
}

// Offsets into the raw payload of a rank-1 block: the mask, the run
// count, then the first run's step, multiplicity and repeat (one byte
// each for the small keys the reject table uses).
const (
	payMask   = 0
	payNRuns  = 1
	payStep0  = 5
	payMult0  = 6
	payRep0   = 7
	payRun1   = 8 // second run, when there is one
	payRunLen = 3
)

// Shapes of the valid spill a reject case starts from.
const (
	shapeAggregates = iota // Value{Sum: 2, Count: 1}: sums and counts
	shapeSingletons        // NewValue(x, true): the sample column alone
	shapeMixed             // two samples per pair: every column kept
)

func rejectShape(shape, n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		v := Value{Sum: 2, Count: 1}
		switch shape {
		case shapeSingletons:
			v = NewValue(float64(i)+0.5, true)
		case shapeMixed:
			v = Value{Sum: 3, SumSq: 5, Min: 1, Max: 2, Count: 2, Samples: []float64{1, 2}}
		}
		pairs[i] = Pair{Key: coords.NewCoord(int64(i)), Value: v}
	}
	return pairs
}

// TestReadSpillRejects is the decoder's safety table: each case damages
// one valid spill in one way and names the error the shuffle relies on
// (nil want = any error). Every case must fail ReadSpill, surfacing
// nothing. A body case patches the payload
// through resealBlock, so it is the structural check that refuses it,
// not the CRC.
func TestReadSpillRejects(t *testing.T) {
	le := binary.LittleEndian
	// body damages the (single) block's payload and reseals it.
	body := func(fn func(p []byte) []byte) func([]byte) []byte {
		return func(b []byte) []byte {
			return resealBlock(b, fn(append([]byte(nil), b[spillHeaderLen+blockHeaderLen:]...)))
		}
	}
	set := func(off int, v byte) func([]byte) []byte {
		return body(func(p []byte) []byte { p[off] = v; return p })
	}
	cases := []struct {
		name   string
		n      int // pairs in the valid spill (rank 1, keys 0..n-1)
		shape  int
		damage func(b []byte) []byte
		want   error
	}{
		{name: "bad-magic", n: 1, want: errBadSpillMagic,
			damage: func(b []byte) []byte { copy(b, "NOPE"); return b }},
		{name: "foreign-bytes", want: errBadSpillMagic,
			damage: func([]byte) []byte { return []byte("XXXXxxxxxxxx") }},
		{name: "unknown-version", n: 1, want: errBadSpillVersion,
			damage: func(b []byte) []byte { le.PutUint16(b[4:6], 0x0909); return b }},
		{name: "version-judged-before-truncation", want: errBadSpillVersion,
			damage: func(b []byte) []byte { b[4] = 9; return b[:6] }},
		{name: "unknown-flags", n: 1, want: errBadSpillVersion,
			damage: func(b []byte) []byte { b[23] |= 0x80; return b }},
		// The retired DEFLATE bit, with the block CRC recomputed so that
		// the header check, not the checksum, refuses it.
		{name: "deflate-flag-resealed", n: 1, want: errBadSpillVersion,
			damage: func(b []byte) []byte { b[22] |= 1; return sealBlock(b) }},
		{name: "zero-rank", n: 1,
			damage: func(b []byte) []byte { le.PutUint32(b[6:10], 0); return b }},
		{name: "implausible-rank", n: 1,
			damage: func(b []byte) []byte { le.PutUint32(b[6:10], coords.MaxRank+1); return b }},
		{name: "truncated-header", n: 1, want: io.ErrUnexpectedEOF,
			damage: func(b []byte) []byte { return b[:spillHeaderLen-1] }},
		{name: "truncated-body", n: 3,
			damage: func(b []byte) []byte { return b[:len(b)-4] }},
		// nPairs at the u32 maximum with nBlocks still 0: the block/pair
		// cross-check must reject it without allocating per-count memory.
		{name: "huge-pair-count", n: 0, want: ErrChecksum,
			damage: func(b []byte) []byte { le.PutUint32(b[18:22], math.MaxUint32); return b }},
		{name: "huge-block-count", n: 1,
			damage: func(b []byte) []byte { le.PutUint32(b[24:28], math.MaxUint32); return b }},
		// A block claiming a 4 GB payload is refused by the plausibility
		// cap, not buffered.
		{name: "huge-block-enclen", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { le.PutUint32(b[spillHeaderLen+8:], math.MaxUint32); return b }},
		{name: "huge-block-rawlen", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { le.PutUint32(b[spillHeaderLen+4:], math.MaxUint32); return b }},
		// The per-pair sample count of a single mixed pair sits before
		// its two samples.
		{name: "huge-sample-count", n: 1, shape: shapeMixed, want: ErrChecksum,
			damage: body(func(p []byte) []byte { le.PutUint32(p[len(p)-20:], math.MaxUint32); return p })},
		// Valid structure, wrong bytes: the failure must be the checksum
		// sentinel the cluster's corrupt-spill re-execution keys on.
		{name: "payload-bit-flip", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { b[spillHeaderLen+blockHeaderLen] ^= 0x80; return b }},

		// Key runs. Keys 0,1,2 encode as run (step 0, ×1, 1 key) then
		// run (step 1, ×1, 2 keys).
		{name: "runs-sum-past-block", n: 3, want: ErrChecksum, damage: set(payRun1+2, 3)},
		{name: "runs-sum-short-of-block", n: 3, want: ErrChecksum, damage: set(payRun1+2, 1)},
		{name: "multiplicity-sums-past-block", n: 3, want: ErrChecksum, damage: set(payRun1+1, 2)},
		{name: "zero-multiplicity", n: 1, want: ErrChecksum, damage: set(payMult0, 0)},
		{name: "zero-repeat", n: 1, want: ErrChecksum, damage: set(payRep0, 0)},
		{name: "no-runs", n: 1, want: ErrChecksum, damage: set(payNRuns, 0)},
		{name: "huge-run-count", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte { le.PutUint32(p[payNRuns:], math.MaxUint32); return p })},
		{name: "one-run-too-many", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte {
				p[payNRuns] = 2
				return append(p[:payRun1:payRun1], append([]byte{1, 1, 1}, p[payRun1:]...)...)
			})},
		// An 11-byte varint overflows 64 bits whatever it says.
		{name: "step-overflows", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte {
				over := bytes.Repeat([]byte{0xff}, 11)
				return append(p[:payStep0:payStep0], append(over, p[payStep0+1:]...)...)
			})},
		{name: "multiplicity-overflows", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte {
				over := bytes.Repeat([]byte{0xff}, 11)
				return append(p[:payMult0:payMult0], append(over, p[payMult0+1:]...)...)
			})},
		{name: "run-truncated", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:payRep0] })},
		{name: "payload-shorter-than-its-preamble", n: 1, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:payNRuns+2] })},

		// Column masks.
		{name: "mask-unknown-bits", n: 1, want: ErrChecksum, damage: set(payMask, colCount|colSum|0x80)},
		{name: "mask-drops-underivable-column", n: 1, want: ErrChecksum, damage: set(payMask, colSum)},
		{name: "mask-empty", n: 1, want: ErrChecksum, damage: set(payMask, 0)},
		// The sample counts and the samples come together or not at all,
		// and a singleton block has no sample counts.
		{name: "mask-sample-counts-without-samples", n: 1, want: ErrChecksum, damage: set(payMask, colCount|colSum|colNSamples)},
		{name: "mask-samples-without-sample-counts", n: 1, want: ErrChecksum, damage: set(payMask, colCount|colSum|colSamples)},
		{name: "mask-singletons-with-sample-counts", n: 2, shape: shapeSingletons, want: ErrChecksum,
			damage: set(payMask, colStats|colNSamples|colSamples)},
		// Aggregates relabelled as singletons: 16 bytes where the mask
		// implies 8.
		{name: "mask-singletons-over-aggregates", n: 1, want: ErrChecksum, damage: set(payMask, colSamples|colSum)},
		// A stored column relabelled as +0: 16 bytes where the mask
		// implies 8.
		{name: "mask-drops-a-stored-column", n: 1, want: ErrChecksum, damage: set(payMask, colCount)},
		// A NaN sample cannot stand for its SumSq (the product's payload
		// bits are not portable), so the encoder never drops columns
		// over one and the decoder refuses a block that claims to.
		{name: "singleton-mask-over-nan-sample", n: 2, shape: shapeSingletons, want: ErrChecksum,
			damage: body(func(p []byte) []byte {
				le.PutUint64(p[len(p)-8:], math.Float64bits(math.NaN()))
				return p
			})},
		{name: "sample-column-short-singletons", n: 2, shape: shapeSingletons, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:len(p)-8] })},
		{name: "sample-column-long-singletons", n: 2, shape: shapeSingletons, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return append(p, 0, 0, 0, 0, 0, 0, 0, 0) })},
		{name: "sample-column-short-mixed", n: 2, shape: shapeMixed, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:len(p)-8] })},
		{name: "aggregate-columns-short", n: 2, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:len(p)-8] })},
		{name: "mixed-columns-shorter-than-fixed", n: 2, shape: shapeMixed, want: ErrChecksum,
			damage: body(func(p []byte) []byte { return p[:payRun1+payRunLen+40] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.damage(encodeSpillV3(t, 1, int64(tc.n), rejectShape(tc.shape, tc.n), V3Options{}))
			_, got, err := ReadSpill(bytes.NewReader(data))
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("ReadSpill err = %v, want %v", err, tc.want)
			}
			if got != nil {
				t.Fatalf("rejected spill surfaced %d pairs", len(got))
			}
		})
	}
}

// TestRejectTableStartsFromTheLayoutItAssumes pins the payload offsets
// the reject table patches, so a layout change fails here by name
// instead of silently turning cases into CRC failures.
func TestRejectTableStartsFromTheLayoutItAssumes(t *testing.T) {
	p := encodeSpillV3(t, 1, 3, rejectShape(shapeAggregates, 3), V3Options{})[spillHeaderLen+blockHeaderLen:]
	want := []byte{colCount | colSum, 2, 0, 0, 0 /* run 0: */, 0, 1, 1 /* run 1: step +1 zig-zag */, 2, 1, 2}
	if !bytes.Equal(p[:len(want)], want) || len(p) != len(want)+3*16 {
		t.Fatalf("aggregate payload starts % x (%d bytes), want % x + 48", p[:len(want)], len(p), want)
	}
	if p = encodeSpillV3(t, 1, 2, rejectShape(shapeSingletons, 2), V3Options{})[spillHeaderLen+blockHeaderLen:]; p[payMask] != colSamples|colStats || len(p) != payRun1+payRunLen+2*8 {
		t.Fatalf("singleton payload: mask %#x, %d bytes", p[payMask], len(p))
	}
	if p = encodeSpillV3(t, 1, 2, rejectShape(shapeMixed, 2), V3Options{})[spillHeaderLen+blockHeaderLen:]; p[payMask] != maskFull || len(p) != payRun1+payRunLen+2*(44+16) {
		t.Fatalf("mixed payload: mask %#x, %d bytes", p[payMask], len(p))
	}
}

// TestReadSpillAllocatesOnlyWhatArrives: a length field is untrusted
// until the bytes it announces have arrived and passed the CRC. A block
// header claiming a payload just under the 1 GiB plausibility cap, over
// a 64-byte stream, must be rejected having allocated a few read steps
// at most.
func TestReadSpillAllocatesOnlyWhatArrives(t *testing.T) {
	le := binary.LittleEndian
	data := encodeSpillV3(t, 1, 1, rejectShape(shapeAggregates, 1), V3Options{})[:64]
	le.PutUint32(data[spillHeaderLen+4:], maxBlockLen-1)
	le.PutUint32(data[spillHeaderLen+8:], maxBlockLen-1)
	for name, read := range map[string]func() error{
		"ReadSpill": func() error { _, _, err := ReadSpill(bytes.NewReader(data)); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a block claiming %d bytes", name, maxBlockLen-1)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Fatalf("%s allocated %d bytes refusing a %d-byte stream (%v)", name, got, len(data), err)
		}
	}
}

// retiredSpillHeader hand-builds the header of a retired format: the
// row-oriented version 2 (26 bytes: magic, version, rank, sourceCount,
// nPairs, payload CRC), or the columnar version 3 or the structural
// version 4 (28 bytes, the fields version 5 still has).
func retiredSpillHeader(version uint16, rank uint32, sourceCount uint64) []byte {
	le := binary.LittleEndian
	b := make([]byte, 28)
	if version == 2 {
		b = b[:26]
	}
	copy(b, "SPIL")
	le.PutUint16(b[4:6], version)
	le.PutUint32(b[6:10], rank)
	le.PutUint64(b[10:18], sourceCount)
	return b
}

// TestReadSpillRejectsV2 / V3 / V4: there is one spill format; a file of
// a retired version is refused by name, not misparsed. (Version 4's
// singleton mask derived every statistic; version 5's derives the ones
// its bits name.)
func TestReadSpillRejectsV2(t *testing.T) { testRejectsRetired(t, 2) }
func TestReadSpillRejectsV3(t *testing.T) { testRejectsRetired(t, 3) }
func TestReadSpillRejectsV4(t *testing.T) { testRejectsRetired(t, 4) }

func testRejectsRetired(t *testing.T, version uint16) {
	data := retiredSpillHeader(version, 2, 42)
	if _, _, err := ReadSpill(bytes.NewReader(data)); !errors.Is(err, errBadSpillVersion) {
		t.Fatalf("ReadSpill err = %v, want errBadSpillVersion", err)
	}
}

// TestSpillV3DetectsBitFlip: flipping any single bit outside the
// sourceCount annotation must be rejected — payload flips by the block
// CRC, header flips by the CRC seed or structural validation. The
// annotation bytes (10..18) stay deliberately unprotected: the §3.2.1
// kv-count gate verifies them independently.
func TestSpillV3DetectsBitFlip(t *testing.T) {
	sets := [][]Pair{
		// A mixed block (one pair carries samples) and an aggregate-only
		// remainder block.
		{
			{Key: coords.NewCoord(1, 2), Value: Value{Sum: 4, SumSq: 16, Min: 4, Max: 4, Count: 1}},
			{Key: coords.NewCoord(3, 4), Value: Value{Count: 2, Samples: []float64{0.5, 0.25}}},
			{Key: coords.NewCoord(5, 6), Value: Value{Sum: -1, Count: 3}},
			{Key: coords.NewCoord(7, 8), Value: Value{Sum: 9, Count: 4}},
			{Key: coords.NewCoord(9, 10), Value: Value{Sum: 1, Count: 5}},
		},
		// Singleton blocks: repeated, negative and far-apart keys, the
		// sample column alone.
		{
			{Key: coords.NewCoord(-3, 0), Value: NewValue(1.5, true)},
			{Key: coords.NewCoord(-3, 0), Value: NewValue(-2.25, true)},
			{Key: coords.NewCoord(-3, 1), Value: NewValue(0, true)},
			{Key: coords.NewCoord(1<<40, -7), Value: NewValue(math.Inf(-1), true)},
			{Key: coords.NewCoord(1<<40, -7), Value: NewValue(3, true)},
		},
	}
	for _, pairs := range sets {
		data := encodeSpillV3(t, 2, 42, pairs, V3Options{BlockPairs: 4})
		for i := 0; i < len(data); i++ {
			if i >= 10 && i < 18 {
				continue // the annotation is the kv-count gate's to verify
			}
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), data...)
				flipped[i] ^= 1 << bit
				if _, _, err := ReadSpill(bytes.NewReader(flipped)); err == nil {
					t.Fatalf("flip at byte %d bit %d decoded without error", i, bit)
				}
			}
		}
		// Annotation tamper must NOT trip a checksum.
		patched := append([]byte(nil), data...)
		patched[10] ^= 0x01
		h, _, err := ReadSpill(bytes.NewReader(patched))
		if err != nil {
			t.Fatalf("sourceCount tamper tripped a checksum: %v", err)
		}
		if h.SourceCount == 42 {
			t.Fatal("tamper did not change the annotation")
		}
	}
}

// TestSpillV3RejectsEveryTruncation: no strict prefix of a valid v3
// spill may decode successfully.
func TestSpillV3RejectsEveryTruncation(t *testing.T) {
	data := encodeSpillV3(t, 3, 99, v3TestPairs(9), V3Options{BlockPairs: 4})
	for n := 0; n < len(data); n++ {
		if _, _, err := ReadSpill(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// declaredSets are the statistic sets operators declare (ops.Operator.Stats),
// and every statistic, which hand-built and merged values carry.
var declaredSets = []Stats{0, StatSum, StatSum | StatSumSq, StatMinMax, allStats}

// declaredPairs is a Map output whose values fold only st: n keys of
// points each, keeping their samples when sampled. One point a key,
// sampled, is a singleton block.
func declaredPairs(st Stats, n, points int, sampled bool) []Pair {
	r := rand.New(rand.NewSource(int64(st)))
	pairs := make([]Pair, n)
	for i := range pairs {
		xs := make([]float64, points)
		for j := range xs {
			xs[j] = r.NormFloat64()*100 + 1
		}
		pairs[i].Key = coords.NewCoord(int64(i))
		pairs[i].Value.AddRun(xs, st, sampled)
	}
	return pairs
}

// statColumns is the column bits of the statistics in st.
func statColumns(st Stats) uint8 {
	var m uint8
	if st&StatSum != 0 {
		m |= colSum
	}
	if st&StatSumSq != 0 {
		m |= colSumSq
	}
	if st&StatMinMax != 0 {
		m |= colMin | colMax
	}
	return m
}

// TestStatColumnsAtZeroAreNotWritten: a block stores only the statistic
// columns some pair holds other than +0, and a singleton block derives
// only the ones its pairs carry, for every declared set: the mask and the
// payload size say so, and every value round-trips bit for bit. A median
// of single points keeps its NaN samples in the singleton layout, since
// it derives no SumSq.
func TestStatColumnsAtZeroAreNotWritten(t *testing.T) {
	for _, st := range declaredSets {
		for _, c := range []struct {
			name    string
			points  int
			sampled bool
			mask    uint8
			width   int // fixed bytes per pair
		}{
			{"aggregates", 3, false, colCount | statColumns(st), 8 * (1 + bits.OnesCount8(statColumns(st)))},
			{"sampled", 3, true, colCount | colNSamples | colSamples | statColumns(st), 12 + 8*bits.OnesCount8(statColumns(st))},
			{"singletons", 1, true, colSamples | statColumns(st), 0},
		} {
			pairs := declaredPairs(st, 10, c.points, c.sampled)
			data := encodeSpillV3(t, 1, int64(10*c.points), pairs, V3Options{})
			p := data[spillHeaderLen+blockHeaderLen:]
			keys := payRun1 + payRunLen // two runs of keys 0..9
			if samples := 8 * 10 * c.points * int(b2u(c.sampled)); p[payMask] != c.mask || len(p) != keys+10*c.width+samples {
				t.Fatalf("stats %03b %s: mask %#x and %d payload bytes, want %#x and %d", st, c.name, p[payMask], len(p), c.mask, keys+10*c.width+samples)
			}
			_, got, err := ReadSpill(bytes.NewReader(data))
			if err != nil || !pairsEqual(t, 1, pairs, got) {
				t.Fatalf("stats %03b %s: round trip failed: %v", st, c.name, err)
			}
		}
	}
	nans := []Pair{{Key: coords.NewCoord(0), Value: Value{Count: 1, Samples: []float64{math.NaN()}}},
		{Key: coords.NewCoord(1), Value: Value{Count: 1, Samples: []float64{-1}}}}
	data := encodeSpillV3(t, 1, 2, nans, V3Options{})
	if mask := data[spillHeaderLen+blockHeaderLen]; mask != colSamples {
		t.Fatalf("median singletons with a NaN sample: mask %#x, want %#x", mask, colSamples)
	}
	if _, got, err := ReadSpill(bytes.NewReader(data)); err != nil || !pairsEqual(t, 1, nans, got) {
		t.Fatalf("median singletons with a NaN sample: round trip failed: %v", err)
	}
}
