package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
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

// pairsEqual compares pairs through their serialised bytes, which makes
// NaN-carrying values comparable.
func pairsEqual(t *testing.T, rank int, a, b []Pair) bool {
	t.Helper()
	return bytes.Equal(encodeSpillV3(t, rank, 0, a, V3Options{}), encodeSpillV3(t, rank, 0, b, V3Options{}))
}

// TestSpillV3RoundTrip: every framing (single block, multi block,
// remainder block, empty, compressed) decodes back to the written
// pairs with the header intact.
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
		{name: "compressed", n: 100, opts: V3Options{BlockPairs: 16, Compress: true}},
		{name: "compressed-single", n: 5, opts: V3Options{Compress: true}},
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
			if tc.opts.Compress != (h.Flags&V3FlagDeflate != 0) {
				t.Fatalf("compress flag = %x, opts = %+v", h.Flags, tc.opts)
			}
			if !pairsEqual(t, 3, pairs, got) {
				t.Fatal("decoded pairs differ from written pairs")
			}
		})
	}
}

// TestReadSpillHeaderStopsAtHeader: ReadSpillHeader must work on a
// stream that carries only the header bytes — §3.2.1's point is reading
// the annotation without parsing pair bodies — and must consume nothing
// past them.
func TestReadSpillHeaderStopsAtHeader(t *testing.T) {
	data := encodeSpillV3(t, 3, 12345, v3TestPairs(9), V3Options{BlockPairs: 4})
	h, err := ReadSpillHeader(io.LimitReader(bytes.NewReader(data), spillHeaderLenV3))
	if err != nil {
		t.Fatal(err)
	}
	if h.Rank != 3 || h.SourceCount != 12345 || h.Pairs != 9 || h.Blocks != 3 {
		t.Fatalf("header = %+v", h)
	}
	r := bytes.NewReader(data)
	if _, err := ReadSpillHeader(r); err != nil {
		t.Fatal(err)
	}
	if rest := r.Len(); rest != len(data)-spillHeaderLenV3 {
		t.Fatalf("header read left %d bytes unread, want %d", rest, len(data)-spillHeaderLenV3)
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
		opts := V3Options{BlockPairs: r.Intn(8), Compress: r.Intn(2) == 0}
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

// TestReadSpillRejects is the decoder's safety table: each case damages
// one valid spill in one way and names the error the shuffle relies on
// (nil want = any error). Every case must fail ReadSpill; header cases
// must fail ReadSpillHeader the same way.
func TestReadSpillRejects(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name   string
		n      int // pairs in the valid spill (rank 1)
		damage func(b []byte) []byte
		want   error
		header bool // ReadSpillHeader must reject it too
	}{
		{name: "bad-magic", n: 1, header: true, want: ErrBadSpillMagic,
			damage: func(b []byte) []byte { copy(b, "NOPE"); return b }},
		{name: "foreign-bytes", header: true, want: ErrBadSpillMagic,
			damage: func([]byte) []byte { return []byte("XXXXxxxxxxxx") }},
		{name: "unknown-version", n: 1, header: true, want: ErrBadSpillVersion,
			damage: func(b []byte) []byte { le.PutUint16(b[4:6], 0x0909); return b }},
		{name: "version-judged-before-truncation", header: true, want: ErrBadSpillVersion,
			damage: func(b []byte) []byte { b[4] = 9; return b[:6] }},
		{name: "unknown-flags", n: 1, header: true, want: ErrBadSpillVersion,
			damage: func(b []byte) []byte { b[23] |= 0x80; return b }},
		{name: "zero-rank", n: 1, header: true,
			damage: func(b []byte) []byte { le.PutUint32(b[6:10], 0); return b }},
		{name: "implausible-rank", n: 1, header: true,
			damage: func(b []byte) []byte { le.PutUint32(b[6:10], coords.MaxRank+1); return b }},
		{name: "truncated-header", n: 1, header: true, want: io.ErrUnexpectedEOF,
			damage: func(b []byte) []byte { return b[:spillHeaderLenV3-1] }},
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
			damage: func(b []byte) []byte { le.PutUint32(b[spillHeaderLenV3+8:], math.MaxUint32); return b }},
		{name: "huge-block-rawlen", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { le.PutUint32(b[spillHeaderLenV3+4:], math.MaxUint32); return b }},
		// The per-pair sample count is the final u32 of a sampleless
		// single-pair block.
		{name: "huge-sample-count", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { le.PutUint32(b[len(b)-4:], math.MaxUint32); return b }},
		// Valid structure, wrong bytes: the failure must be the checksum
		// sentinel the cluster's corrupt-spill re-execution keys on.
		{name: "payload-bit-flip", n: 1, want: ErrChecksum,
			damage: func(b []byte) []byte { b[spillHeaderLenV3+blockHeaderLen] ^= 0x80; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pairs := make([]Pair, tc.n)
			for i := range pairs {
				pairs[i] = Pair{Key: coords.NewCoord(int64(i)), Value: Value{Sum: 2, Count: 1}}
			}
			data := tc.damage(encodeSpillV3(t, 1, int64(tc.n), pairs, V3Options{}))
			_, got, err := ReadSpill(bytes.NewReader(data))
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("ReadSpill err = %v, want %v", err, tc.want)
			}
			if got != nil {
				t.Fatalf("rejected spill surfaced %d pairs", len(got))
			}
			if tc.header {
				if _, err := ReadSpillHeader(bytes.NewReader(data)); err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
					t.Fatalf("ReadSpillHeader err = %v, want %v", err, tc.want)
				}
			}
		})
	}
}

// v2SpillHeader hand-builds the retired row-oriented format's 26-byte
// header (magic, version 2, rank, sourceCount, nPairs, payload CRC).
func v2SpillHeader(rank uint32, sourceCount uint64) []byte {
	le := binary.LittleEndian
	b := make([]byte, 26)
	copy(b, "SPIL")
	le.PutUint16(b[4:6], 2)
	le.PutUint32(b[6:10], rank)
	le.PutUint64(b[10:18], sourceCount)
	return b
}

// TestReadSpillRejectsV2: there is one spill format; a version-2 file is
// refused by name, not misparsed.
func TestReadSpillRejectsV2(t *testing.T) {
	data := v2SpillHeader(2, 42)
	if _, _, err := ReadSpill(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillVersion) {
		t.Fatalf("ReadSpill err = %v, want ErrBadSpillVersion", err)
	}
	if _, err := ReadSpillHeader(bytes.NewReader(data)); !errors.Is(err, ErrBadSpillVersion) {
		t.Fatalf("ReadSpillHeader err = %v, want ErrBadSpillVersion", err)
	}
}

// TestSpillV3DetectsBitFlip: flipping any single bit outside the
// sourceCount annotation must be rejected — payload flips by the block
// CRC, header flips by the CRC seed or structural validation. The
// annotation bytes (10..18) stay deliberately unprotected: the §3.2.1
// kv-count gate verifies them independently.
func TestSpillV3DetectsBitFlip(t *testing.T) {
	for _, opts := range []V3Options{{BlockPairs: 4}, {BlockPairs: 4, Compress: true}} {
		data := encodeSpillV3(t, 2, 42, []Pair{
			{Key: coords.NewCoord(1, 2), Value: Value{Sum: 4, SumSq: 16, Min: 4, Max: 4, Count: 1}},
			{Key: coords.NewCoord(3, 4), Value: Value{Count: 2, Samples: []float64{0.5, 0.25}}},
			{Key: coords.NewCoord(5, 6), Value: Value{Sum: -1, Count: 3}},
			{Key: coords.NewCoord(7, 8), Value: Value{Sum: 9, Count: 4}},
			{Key: coords.NewCoord(9, 10), Value: Value{Sum: 1, Count: 5}},
		}, opts)
		for i := 0; i < len(data); i++ {
			if i >= 10 && i < 18 {
				continue // the annotation is the kv-count gate's to verify
			}
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), data...)
				flipped[i] ^= 1 << bit
				if _, _, err := ReadSpill(bytes.NewReader(flipped)); err == nil {
					t.Fatalf("flip at byte %d bit %d (compress=%v) decoded without error",
						i, bit, opts.Compress)
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
