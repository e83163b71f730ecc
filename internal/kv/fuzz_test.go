package kv

import (
	"bytes"
	"math"
	"testing"

	"sidr/internal/coords"
)

// v3ReencodeOpts derives re-encode options from a decoded header. For
// any accepted input, ceil(pairs/blocks) applied twice is a fixed point
// of the framing (ceil(n/ceil(n/ceil(n/k))) = ceil(n/ceil(n/k))), which
// gives the fuzz target a deterministic byte-level fixed point even for
// crafted inputs with irregular block sizes.
func v3ReencodeOpts(h spillHeader) V3Options {
	bp := 1
	if h.Blocks > 0 {
		bp = (h.Pairs + h.Blocks - 1) / h.Blocks
	}
	if bp <= 0 {
		bp = 1
	}
	return V3Options{BlockPairs: bp}
}

// FuzzReadSpill feeds arbitrary bytes to the spill decoder. Properties:
// no panics (corrupt and truncated spills are rejected with an error);
// any accepted input re-encodes to a byte-identical
// fixed point (after one framing normalisation pass) — the codec is the
// shuffle's wire format, so decode must lose nothing WriteSpillV3 can
// express; and the re-encoded bytes reject every single-bit flip outside
// the sourceCount annotation, so corrupt bytes are never committed.
func FuzzReadSpill(f *testing.F) {
	// Well-formed seeds across the codec's shapes: empty; an aggregate
	// block; a singleton block whose keys repeat; mixed blocks with
	// special floats; negative, sparse and extreme keys.
	singletons := make([]Pair, 24)
	for i := range singletons {
		singletons[i] = Pair{Key: coords.NewCoord(2, int64(i/8)), Value: NewValue(float64(i)-3.5, true)}
	}
	f.Add(encodeSpillV3(f, 1, 0, nil, V3Options{}))
	f.Add(encodeSpillV3(f, 3, 1500, []Pair{
		{Key: coords.NewCoord(0, 1, 2), Value: Value{Sum: 3.5, SumSq: 12.25, Min: 3.5, Max: 3.5, Count: 1}},
		{Key: coords.NewCoord(4, 5, 6), Value: Value{Sum: -1, SumSq: 1, Min: -1, Max: 0, Count: 2}},
	}, V3Options{}))
	f.Add(encodeSpillV3(f, 2, 24, singletons, V3Options{BlockPairs: 16}))
	f.Add(encodeSpillV3(f, 2, 9, []Pair{
		{Key: coords.NewCoord(9, 9), Value: Value{Count: 3, Samples: []float64{1.5, math.Inf(1), math.NaN()}}},
	}, V3Options{}))
	f.Add(encodeSpillV3(f, 3, 1500, v3TestPairs(20), V3Options{BlockPairs: 8}))
	f.Add(encodeSpillV3(f, 2, 4, []Pair{
		{Key: coords.NewCoord(math.MinInt64, -5), Value: NewValue(1, true)},
		{Key: coords.NewCoord(-1000000, 7), Value: NewValue(math.NaN(), true)},
		{Key: coords.NewCoord(0, 1<<50), Value: NewValue(2, false)},
		{Key: coords.NewCoord(math.MaxInt64, math.MinInt64), Value: NewValue(3, false)},
	}, V3Options{BlockPairs: 2}))
	// Corruption seeds: bad magic, bad version, the retired v2 and v3
	// headers, a truncated header, a flipped payload bit, a truncated
	// block, and the retired DEFLATE flag on a resealed one-block spill
	// and on an empty one.
	good := encodeSpillV3(f, 3, 9, v3TestPairs(6), V3Options{BlockPairs: 2})
	badMagic := append([]byte(nil), good...)
	copy(badMagic, "JUNK")
	f.Add(badMagic)
	badVer := append([]byte(nil), good...)
	badVer[4] = 0xff
	f.Add(badVer)
	f.Add(retiredSpillHeader(2, 2, 42))
	f.Add(retiredSpillHeader(3, 2, 42))
	f.Add(good[:5])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	f.Add(flipped[:len(flipped)-7])
	deflated := encodeSpillV3(f, 3, 9, v3TestPairs(6), V3Options{})
	deflated[22] |= 1
	f.Add(sealBlock(deflated))
	emptyFlagged := encodeSpillV3(f, 1, 0, nil, V3Options{})
	emptyFlagged[22] |= 1
	f.Add(emptyFlagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, pairs, err := ReadSpill(bytes.NewReader(data))
		if err != nil {
			return // graceful rejection is the required behaviour
		}
		if len(pairs) != h.Pairs {
			t.Fatalf("decoded %d pairs, header says %d", len(pairs), h.Pairs)
		}
		var buf bytes.Buffer
		if err := WriteSpillV3(&buf, h.Rank, h.SourceCount, pairs, v3ReencodeOpts(h)); err != nil {
			t.Fatalf("re-encoding accepted spill: %v", err)
		}
		enc1 := append([]byte(nil), buf.Bytes()...)
		h1, pairs1, err := ReadSpill(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-decoding re-encoded spill: %v", err)
		}
		if h1.Rank != h.Rank || h1.SourceCount != h.SourceCount || h1.Pairs != h.Pairs {
			t.Fatalf("header fields changed across re-encode: %+v != %+v", h1, h)
		}
		buf.Reset()
		if err := WriteSpillV3(&buf, h1.Rank, h1.SourceCount, pairs1, v3ReencodeOpts(h1)); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc1, buf.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\n%x\n%x", enc1, buf.Bytes())
		}
		// Per-block CRC: any single-bit flip outside the annotation must
		// reject. TestSpillV3DetectsBitFlip is exhaustive; here a handful
		// of probe positions per input keeps the per-exec cost low enough
		// that corpus minimisation stays productive on one CPU.
		stride := 1 + len(enc1)/16
		for i := 0; i < len(enc1); i += stride {
			if i >= 10 && i < 18 {
				continue // sourceCount: the kv-count gate's bytes
			}
			flipped := append([]byte(nil), enc1...)
			flipped[i] ^= 0x10
			if _, _, err := ReadSpill(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit flip at byte %d of re-encoded spill decoded without error", i)
			}
		}
	})
}
