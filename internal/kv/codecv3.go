package kv

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sidr/internal/coords"
)

// This file implements the spill format's body: the block-framed
// columnar layout the shuffle serves at hardware speed. Pairs are framed
// into fixed-size blocks, each laid out column-major (sorted keys first,
// then the value columns), optionally DEFLATEd, and checksummed
// independently — so a streaming reader rejects a flipped bit as soon as
// the damaged block arrives, and a serving worker moves the file as
// opaque bytes without re-decoding a single pair.
//
// Layout (little-endian):
//
//	file header (28 bytes):
//	  magic "SPIL" | u16 version=3 | u32 rank | u64 sourceCount
//	  | u32 nPairs | u16 flags | u32 nBlocks
//
//	nBlocks × block:
//	  block header (16 bytes):
//	    u32 bPairs | u32 rawLen | u32 encLen | u32 crc
//	  stored payload (encLen bytes; == raw payload unless flag 0 set)
//
//	raw block payload (columnar, rawLen bytes):
//	  rank × bPairs × i64   keys, dimension-major (keys stay sorted)
//	  bPairs × f64          sums
//	  bPairs × f64          sum-of-squares
//	  bPairs × f64          mins
//	  bPairs × f64          maxs
//	  bPairs × i64          counts
//	  bPairs × u32          per-pair sample counts
//	  Σ nSamples × f64      samples, in pair order
//
// The sourceCount annotation (bytes 10..18) stays outside every
// checksum: the kv-count gate (§3.2.1) verifies it independently on the
// Reduce side. Every other header field is folded into each block's CRC
// as a seed, so a flipped rank/flags/count bit is caught by the first
// block read. Block CRCs cover their own header's first 12 bytes plus
// the stored payload.

const (
	spillVersionV3 uint16 = 3
	// spillHeaderLenV3 is the fixed byte length of the file header.
	spillHeaderLenV3 = 28
	// blockHeaderLen is the per-block frame header length.
	blockHeaderLen = 16
	// V3FlagDeflate marks per-block DEFLATE compression (stdlib
	// compress/flate, BestSpeed — deterministic for a given input).
	V3FlagDeflate uint16 = 1 << 0

	// DefaultBlockPairs is the default pairs-per-block framing.
	DefaultBlockPairs = 4096

	// maxBlockLen caps a single block's claimed raw or stored byte
	// length. The limit defends the decoder against corrupt or hostile
	// length fields (including DEFLATE bombs) long before gigabytes are
	// materialised; real blocks are a few hundred KB.
	maxBlockLen = 1 << 30
)

// V3Options tunes WriteSpillV3.
type V3Options struct {
	// BlockPairs is the pairs-per-block framing (default
	// DefaultBlockPairs). The final block holds the remainder.
	BlockPairs int
	// Compress DEFLATEs each block's columnar payload.
	Compress bool
}

// WriteSpillV3 serialises sorted pairs in the block-framed columnar
// format with their source-count annotation.
func WriteSpillV3(w io.Writer, rank int, sourceCount int64, pairs []Pair, opts V3Options) error {
	if rank <= 0 || rank > coords.MaxRank {
		return fmt.Errorf("kv: invalid spill rank %d", rank)
	}
	blockPairs := opts.BlockPairs
	if blockPairs <= 0 {
		blockPairs = DefaultBlockPairs
	}
	var flags uint16
	if opts.Compress {
		flags |= V3FlagDeflate
	}
	nBlocks := (len(pairs) + blockPairs - 1) / blockPairs

	le := binary.LittleEndian
	var hdr [spillHeaderLenV3]byte
	copy(hdr[:4], spillMagic[:])
	le.PutUint16(hdr[4:6], spillVersionV3)
	le.PutUint32(hdr[6:10], uint32(rank))
	le.PutUint64(hdr[10:18], uint64(sourceCount))
	le.PutUint32(hdr[18:22], uint32(len(pairs)))
	le.PutUint16(hdr[22:24], flags)
	le.PutUint32(hdr[24:28], uint32(nBlocks))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	seed := v3HeaderCRCSeed(hdr[:])

	var comp bytes.Buffer
	for off := 0; off < len(pairs); off += blockPairs {
		end := off + blockPairs
		if end > len(pairs) {
			end = len(pairs)
		}
		raw, err := encodeV3Block(rank, pairs[off:end])
		if err != nil {
			return err
		}
		stored := raw
		if opts.Compress {
			comp.Reset()
			fw, err := flate.NewWriter(&comp, flate.BestSpeed)
			if err != nil {
				return err
			}
			if _, err := fw.Write(raw); err != nil {
				return err
			}
			if err := fw.Close(); err != nil {
				return err
			}
			stored = comp.Bytes()
		}
		var bh [blockHeaderLen]byte
		le.PutUint32(bh[0:4], uint32(end-off))
		le.PutUint32(bh[4:8], uint32(len(raw)))
		le.PutUint32(bh[8:12], uint32(len(stored)))
		crc := crc32.Update(seed, castagnoli, bh[0:12])
		crc = crc32.Update(crc, castagnoli, stored)
		le.PutUint32(bh[12:16], crc)
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if _, err := w.Write(stored); err != nil {
			return err
		}
	}
	return nil
}

// v3HeaderCRCSeed folds every file-header field except the sourceCount
// annotation (bytes 10..18, independently verified by the kv-count
// tally) into the seed each block CRC starts from. A flipped bit in
// rank, flags or the counts therefore fails the first block's checksum.
func v3HeaderCRCSeed(hdr []byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr[0:10])
	return crc32.Update(crc, castagnoli, hdr[18:spillHeaderLenV3])
}

// encodeV3Block lays one block of pairs out column-major.
func encodeV3Block(rank int, pairs []Pair) ([]byte, error) {
	n := len(pairs)
	samples := 0
	for i := range pairs {
		if pairs[i].Key.Rank() != rank {
			return nil, fmt.Errorf("kv: pair key %v rank != %d", pairs[i].Key, rank)
		}
		samples += len(pairs[i].Value.Samples)
	}
	raw := make([]byte, v3BlockRawLen(rank, n, samples))
	le := binary.LittleEndian
	off := 0
	for d := 0; d < rank; d++ {
		for i := range pairs {
			le.PutUint64(raw[off:], uint64(pairs[i].Key[d]))
			off += 8
		}
	}
	cols := []func(*Value) float64{
		func(v *Value) float64 { return v.Sum },
		func(v *Value) float64 { return v.SumSq },
		func(v *Value) float64 { return v.Min },
		func(v *Value) float64 { return v.Max },
	}
	for _, col := range cols {
		for i := range pairs {
			le.PutUint64(raw[off:], math.Float64bits(col(&pairs[i].Value)))
			off += 8
		}
	}
	for i := range pairs {
		le.PutUint64(raw[off:], uint64(pairs[i].Value.Count))
		off += 8
	}
	for i := range pairs {
		le.PutUint32(raw[off:], uint32(len(pairs[i].Value.Samples)))
		off += 4
	}
	for i := range pairs {
		for _, s := range pairs[i].Value.Samples {
			le.PutUint64(raw[off:], math.Float64bits(s))
			off += 8
		}
	}
	return raw, nil
}

// v3BlockRawLen is the exact raw payload length of a block: the fixed
// columns plus the variable sample column.
func v3BlockRawLen(rank, nPairs, nSamples int) int {
	return nPairs*(rank*8+4*8+8+4) + nSamples*8
}

// readSpillV3Body decodes the block stream following the file header,
// verifying each block's CRC (seeded by the header fields) before any
// of its pairs are surfaced.
func readSpillV3Body(br *bufio.Reader, h SpillHeader, seed uint32) ([]Pair, error) {
	le := binary.LittleEndian
	// Cap preallocation: counts are untrusted until the blocks that back
	// them actually arrive.
	pairs := make([]Pair, 0, min(h.Pairs, 1024))
	for b := 0; b < h.Blocks; b++ {
		var bh [blockHeaderLen]byte
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			return nil, fmt.Errorf("kv: truncated spill block %d header: %w", b, err)
		}
		bPairs := int(le.Uint32(bh[0:4]))
		rawLen := int(le.Uint32(bh[4:8]))
		encLen := int(le.Uint32(bh[8:12]))
		wantCRC := le.Uint32(bh[12:16])
		if bPairs <= 0 || bPairs > h.Pairs-len(pairs) {
			return nil, fmt.Errorf("kv: spill block %d claims %d pairs with %d remaining: %w",
				b, bPairs, h.Pairs-len(pairs), ErrChecksum)
		}
		if rawLen <= 0 || rawLen > maxBlockLen || encLen <= 0 || encLen > maxBlockLen {
			return nil, fmt.Errorf("kv: spill block %d implausible lengths raw=%d enc=%d: %w",
				b, rawLen, encLen, ErrChecksum)
		}
		stored, err := io.ReadAll(io.LimitReader(br, int64(encLen)))
		if err != nil {
			return nil, fmt.Errorf("kv: reading spill block %d: %w", b, err)
		}
		if len(stored) != encLen {
			return nil, fmt.Errorf("kv: truncated spill block %d: %d of %d bytes", b, len(stored), encLen)
		}
		crc := crc32.Update(seed, castagnoli, bh[0:12])
		crc = crc32.Update(crc, castagnoli, stored)
		if crc != wantCRC {
			return nil, fmt.Errorf("kv: spill block %d crc %08x, header says %08x: %w",
				b, crc, wantCRC, ErrChecksum)
		}
		raw := stored
		if h.Flags&V3FlagDeflate != 0 {
			fr := flate.NewReader(bytes.NewReader(stored))
			raw, err = io.ReadAll(io.LimitReader(fr, int64(rawLen)+1))
			if cerr := fr.Close(); err == nil {
				err = cerr
			}
			if err != nil || len(raw) != rawLen {
				return nil, fmt.Errorf("kv: spill block %d inflates to %d bytes, header says %d (%v): %w",
					b, len(raw), rawLen, err, ErrChecksum)
			}
		} else if encLen != rawLen {
			return nil, fmt.Errorf("kv: uncompressed spill block %d stored %d != raw %d: %w",
				b, encLen, rawLen, ErrChecksum)
		}
		got, err := decodeV3Block(h.Rank, bPairs, raw)
		if err != nil {
			return nil, fmt.Errorf("kv: spill block %d: %w", b, err)
		}
		pairs = append(pairs, got...)
	}
	if len(pairs) != h.Pairs {
		return nil, fmt.Errorf("kv: spill blocks hold %d pairs, header says %d: %w",
			len(pairs), h.Pairs, ErrChecksum)
	}
	return pairs, nil
}

// decodeV3Block parses one block's columnar payload back into pairs.
func decodeV3Block(rank, n int, raw []byte) ([]Pair, error) {
	fixed := n * (rank*8 + 4*8 + 8 + 4)
	if len(raw) < fixed {
		return nil, fmt.Errorf("kv: block payload %d bytes < %d fixed columns: %w",
			len(raw), fixed, ErrChecksum)
	}
	le := binary.LittleEndian
	pairs := make([]Pair, n)
	keys := make(coords.Coord, rank*n) // one backing array for the block's keys
	off := 0
	for d := 0; d < rank; d++ {
		for i := 0; i < n; i++ {
			keys[i*rank+d] = int64(le.Uint64(raw[off:]))
			off += 8
		}
	}
	for i := 0; i < n; i++ {
		pairs[i].Key = keys[i*rank : (i+1)*rank : (i+1)*rank]
	}
	getF := func() float64 {
		f := math.Float64frombits(le.Uint64(raw[off:]))
		off += 8
		return f
	}
	for i := 0; i < n; i++ {
		pairs[i].Value.Sum = getF()
	}
	for i := 0; i < n; i++ {
		pairs[i].Value.SumSq = getF()
	}
	for i := 0; i < n; i++ {
		pairs[i].Value.Min = getF()
	}
	for i := 0; i < n; i++ {
		pairs[i].Value.Max = getF()
	}
	for i := 0; i < n; i++ {
		pairs[i].Value.Count = int64(le.Uint64(raw[off:]))
		off += 8
	}
	totalSamples := 0
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		counts[i] = int(le.Uint32(raw[off:]))
		off += 4
		totalSamples += counts[i]
	}
	if len(raw) != fixed+totalSamples*8 {
		return nil, fmt.Errorf("kv: block payload %d bytes, columns need %d: %w",
			len(raw), fixed+totalSamples*8, ErrChecksum)
	}
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			continue
		}
		ss := make([]float64, counts[i])
		for s := range ss {
			ss[s] = getF()
		}
		pairs[i].Value.Samples = ss
	}
	return pairs, nil
}
