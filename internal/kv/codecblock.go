package kv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"sidr/internal/coords"
)

// This file implements the spill format's body: pairs framed into
// blocks bounded by pair count and payload size (blockEnd), each
// checksummed independently — so a streaming
// reader rejects a flipped bit as soon as the damaged block arrives, and
// a serving worker moves the file as opaque bytes without re-decoding a
// pair. A block is structural: partition+ makes a keyblock a contiguous
// box of K' that a Map task walks in row-major order, so the key column
// is stored as runs of a repeated step, and a value column is stored
// only when it cannot be recomputed from the columns that are.
//
// Layout (little-endian):
//
//	file header (28 bytes):
//	  magic "SPIL" | u16 version=4 | u32 rank | u64 sourceCount
//	  | u32 nPairs | u16 flags=0 | u32 nBlocks
//
//	nBlocks × block:
//	  block header (16 bytes):
//	    u32 bPairs | u32 rawLen | u32 encLen (== rawLen) | u32 crc
//	  payload (rawLen bytes)
//
//	raw block payload (rawLen bytes):
//	  u8  column mask (maskFull, maskAggregates or maskSingletons)
//	  u32 nRuns
//	  nRuns × key run:
//	    rank × varint    step from the previous distinct key (zig-zag;
//	                     the block's first key steps from the origin)
//	    uvarint mult     consecutive pairs sharing each key, ≥ 1
//	    uvarint repeat   keys the run yields, each one step on, ≥ 1
//	  the columns the mask keeps, bPairs entries each, in this order:
//	    f64 sums | f64 sum-of-squares | f64 mins | f64 maxs
//	    | i64 counts | u32 per-pair sample counts
//	  Σ nSamples × f64   samples, in pair order
//
// Steps are per dimension and wrap in two's complement, so the one key
// layout carries everything a Coord can (negative, sparse, repeated,
// unsorted, a join's side coordinate, boxes no int64 can linearize); a
// dense row-major stretch costs two runs per innermost line.
//
// The sourceCount annotation (bytes 10..18) stays outside every
// checksum: the kv-count gate (§3.2.1) verifies it independently on the
// Reduce side. Every other header field is folded into each block's CRC
// as a seed, so a flipped rank/flags/count bit is caught by the first
// block read. Block CRCs cover their own header's first 12 bytes plus
// the payload.
//
// The flags field and the second block length are what remains of a
// per-block DEFLATE option. The frame keeps them so that version 4 stays
// byte for byte what it was; a reader refuses any flag bit, and a block
// whose two lengths differ.
//
// The "V3" in WriteSpillV3 and V3Options is historical (bench/replay.go
// compiles against those names); the format they write is version 4.

const (
	spillVersion uint16 = 4
	// spillHeaderLen is the fixed byte length of the file header.
	spillHeaderLen = 28
	// blockHeaderLen is the per-block frame header length.
	blockHeaderLen = 16

	// defaultBlockPairs is the default bound on the pairs of one block.
	defaultBlockPairs = 4096

	// maxBlockLen caps a single block's claimed byte length. The limit
	// defends the decoder against corrupt or hostile length fields long
	// before gigabytes are materialised. The writer closes a block at
	// about readStep of payload and refuses to emit one over the cap (a
	// single pair that large).
	maxBlockLen = 1 << 30
	// readStep bounds how far a payload buffer grows ahead of the bytes
	// that have arrived: a length is untrusted until they have.
	readStep = 1 << 20
)

// A column mask has one bit per column in stored order — sum, sumsq,
// min, max, count, nSamples, samples — and one of three values.
const (
	// maskFull keeps every column.
	maskFull uint8 = 0x7f
	// maskAggregates drops the sample-count column of a block in which
	// no pair carries a sample.
	maskAggregates uint8 = 0x1f
	// maskSingletons keeps the sample column alone: every pair is one
	// source point x — Count 1, one sample, Sum/Min/Max
	// bit-equal to x, SumSq bit-equal to x*x. x is never NaN: the
	// payload bits of a NaN product are not architecture-independent,
	// so such a block keeps its columns.
	maskSingletons uint8 = 0x40
)

// colWidth is the bytes per pair of the fixed-width columns mask keeps:
// five 8-byte statistics and the u32 sample count.
func colWidth(mask uint8) int {
	return 8*bits.OnesCount8(mask&0x1f) + 4*bits.OnesCount8(mask&0x20)
}

// V3Options tunes WriteSpillV3.
type V3Options struct {
	// BlockPairs is the most pairs a block holds (default
	// defaultBlockPairs); a block also closes once its payload passes
	// readStep. The final block holds the remainder.
	BlockPairs int
}

// WriteSpillV3 serialises sorted pairs in the block-framed format with
// their source-count annotation.
func WriteSpillV3(w io.Writer, rank int, sourceCount int64, pairs []Pair, opts V3Options) error {
	if rank <= 0 || rank > coords.MaxRank {
		return fmt.Errorf("kv: invalid spill rank %d", rank)
	}
	blockPairs := opts.BlockPairs
	if blockPairs <= 0 {
		blockPairs = defaultBlockPairs
	}
	nBlocks := 0
	for off := 0; off < len(pairs); off = blockEnd(pairs, off, blockPairs) {
		nBlocks++
	}

	le := binary.LittleEndian
	var hdr [spillHeaderLen]byte
	copy(hdr[:4], spillMagic[:])
	le.PutUint16(hdr[4:6], spillVersion)
	le.PutUint32(hdr[6:10], uint32(rank))
	le.PutUint64(hdr[10:18], uint64(sourceCount))
	le.PutUint32(hdr[18:22], uint32(len(pairs)))
	// hdr[22:24], the flags, stay zero.
	le.PutUint32(hdr[24:28], uint32(nBlocks))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	seed := headerCRCSeed(hdr[:])

	var raw []byte // one payload buffer serves every block
	for off, end := 0, 0; off < len(pairs); off = end {
		end = blockEnd(pairs, off, blockPairs)
		block := pairs[off:end]
		var err error
		if raw, err = appendBlock(raw[:0], rank, block); err != nil {
			return err
		}
		if len(raw) > maxBlockLen {
			return fmt.Errorf("kv: spill block of %d pairs is %d bytes, over the %d a reader accepts", len(block), len(raw), maxBlockLen)
		}
		var bh [blockHeaderLen]byte
		le.PutUint32(bh[0:4], uint32(len(block)))
		le.PutUint32(bh[4:8], uint32(len(raw)))
		le.PutUint32(bh[8:12], uint32(len(raw)))
		crc := crc32.Update(seed, castagnoli, bh[0:12])
		crc = crc32.Update(crc, castagnoli, raw)
		le.PutUint32(bh[12:16], crc)
		if _, err := w.Write(bh[:]); err != nil {
			return err
		}
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	return nil
}

// blockEnd returns where the block starting at pairs[off] ends: after
// blockPairs pairs, or sooner once its value columns pass readStep — a
// pair weighs what its samples do, so blocks are framed by bytes as well
// as by count and stay far below maxBlockLen. No pair follows the one
// that took its block past readStep, so a run of heavier pairs is one
// block each.
func blockEnd(pairs []Pair, off, blockPairs int) int {
	end := off
	for size := 0; end < len(pairs) && end-off < blockPairs && size < readStep; end++ {
		size += colWidth(maskFull) + 8*len(pairs[end].Value.Samples)
	}
	return end
}

// headerCRCSeed folds every file-header field except the sourceCount
// annotation (bytes 10..18, independently verified by the kv-count
// tally) into the seed each block CRC starts from. A flipped bit in
// rank, flags or the counts therefore fails the first block's checksum.
func headerCRCSeed(hdr []byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr[0:10])
	return crc32.Update(crc, castagnoli, hdr[18:spillHeaderLen])
}

// f64at reads the i-th little-endian f64 of a column.
func f64at(col []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(col[8*i:]))
}

// isSingleton reports whether v is bit for bit what its one sample
// implies (see maskSingletons).
func (v *Value) isSingleton() bool {
	if v.Count != 1 || len(v.Samples) != 1 {
		return false
	}
	x := v.Samples[0]
	b := math.Float64bits(x)
	return x == x && math.Float64bits(v.Sum) == b && math.Float64bits(v.Min) == b &&
		math.Float64bits(v.Max) == b && math.Float64bits(v.SumSq) == math.Float64bits(x*x)
}

// blockMask picks the smallest column set the block's values can be
// recomputed from, verifying every dropped column bit for bit, and
// counts the block's samples.
func blockMask(pairs []Pair) (mask uint8, samples int) {
	singletons := true
	for i := range pairs {
		v := &pairs[i].Value
		singletons = singletons && v.isSingleton()
		samples += len(v.Samples)
	}
	switch {
	case singletons:
		return maskSingletons, samples
	case samples == 0:
		return maskAggregates, 0
	}
	return maskFull, samples
}

// aliased reports whether a and b are one slice — how the pairs of a
// repeated key arrive from a Map task and from the decoder.
func aliased(a, b coords.Coord) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// sameKey is Coord.Equal with that shortcut.
func sameKey(a, b coords.Coord) bool { return aliased(a, b) || a.Equal(b) }

// appendBlock appends one block's raw payload to dst.
func appendBlock(dst []byte, rank int, pairs []Pair) ([]byte, error) {
	le := binary.LittleEndian
	mask, samples := blockMask(pairs)
	dst = append(dst, mask)

	// Key column: one run per stretch of keys that advance by the same
	// step and repeat the same number of times.
	runsAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // nRuns, patched below
	var prev, step [coords.MaxRank]int64
	mult, repeat, runs := 0, 0, 0
	for i := 0; i < len(pairs); {
		key := pairs[i].Key
		if len(key) != rank {
			return nil, fmt.Errorf("kv: pair key %v rank != %d", key, rank)
		}
		m := 1
		for i+m < len(pairs) && sameKey(pairs[i+m].Key, key) {
			m++
		}
		same := repeat > 0 && m == mult
		for d, k := range key {
			s := k - prev[d]
			same = same && s == step[d]
			step[d], prev[d] = s, k
		}
		if same {
			repeat++
		} else {
			if repeat > 0 {
				dst = appendRunTail(dst, mult, repeat)
				runs++
			}
			for _, s := range step[:rank] {
				dst = binary.AppendVarint(dst, s)
			}
			mult, repeat = m, 1
		}
		i += m
	}
	if repeat > 0 {
		dst = appendRunTail(dst, mult, repeat)
		runs++
	}
	le.PutUint32(dst[runsAt:], uint32(runs))

	n := len(pairs)
	dst = slices.Grow(dst, n*colWidth(mask)+samples*8)
	if mask != maskSingletons {
		cols := dst[len(dst) : len(dst)+5*8*n]
		dst = dst[:len(dst)+len(cols)]
		for i := range pairs {
			v := &pairs[i].Value
			for c, f := range [4]float64{v.Sum, v.SumSq, v.Min, v.Max} {
				le.PutUint64(cols[8*(c*n+i):], math.Float64bits(f))
			}
			le.PutUint64(cols[8*(4*n+i):], uint64(v.Count))
		}
	}
	if mask == maskAggregates {
		return dst, nil
	}
	if mask == maskFull {
		for i := range pairs {
			dst = le.AppendUint32(dst, uint32(len(pairs[i].Value.Samples)))
		}
	}
	for i := range pairs {
		for _, s := range pairs[i].Value.Samples {
			dst = le.AppendUint64(dst, math.Float64bits(s))
		}
	}
	return dst, nil
}

// appendRunTail closes a key run whose step is already written.
func appendRunTail(dst []byte, mult, repeat int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(mult)), uint64(repeat))
}

// readExact appends exactly n bytes of r to buf, growing it at most
// readStep ahead of the bytes that have arrived, so a hostile n costs
// what the stream actually holds, not what it claims.
func readExact(r io.Reader, buf []byte, n int) ([]byte, error) {
	for end := len(buf) + n; len(buf) < end; {
		have := len(buf)
		buf = slices.Grow(buf, min(end-have, readStep))
		buf = buf[:min(end, cap(buf))]
		m, err := io.ReadFull(r, buf[have:])
		if err != nil {
			return buf[:have+m], err
		}
	}
	return buf, nil
}

// readBlocks is ReadSpill's block loop. It reads the block stream
// following the file header and checks every block — frame
// plausibility, CRC (seeded by the header fields), payload structure —
// before a pair exists. The verified payloads are kept until the last
// block has passed; the pairs, their keys and their samples are then
// decoded into one backing array each, sized by what was verified.
func readBlocks(br *bufio.Reader, h spillHeader, seed uint32) ([]Pair, error) {
	le := binary.LittleEndian
	var payloads []byte
	var kept []struct{ pairs, bytes int } // the verified blocks
	keys, samples, remaining := 0, 0, h.Pairs
	for b := 0; b < h.Blocks; b++ {
		var bh [blockHeaderLen]byte
		if _, err := io.ReadFull(br, bh[:]); err != nil {
			return nil, fmt.Errorf("kv: truncated spill block %d header: %w", b, err)
		}
		bPairs := int(le.Uint32(bh[0:4]))
		rawLen := int(le.Uint32(bh[4:8]))
		encLen := int(le.Uint32(bh[8:12]))
		wantCRC := le.Uint32(bh[12:16])
		if bPairs <= 0 || bPairs > remaining {
			return nil, fmt.Errorf("kv: spill block %d claims %d pairs with %d remaining: %w", b, bPairs, remaining, ErrChecksum)
		}
		if rawLen <= 0 || rawLen > maxBlockLen || encLen != rawLen {
			return nil, fmt.Errorf("kv: spill block %d implausible lengths raw=%d enc=%d: %w", b, rawLen, encLen, ErrChecksum)
		}
		at := len(payloads)
		var err error
		if payloads, err = readExact(br, payloads, rawLen); err != nil {
			return nil, fmt.Errorf("kv: truncated spill block %d: %d of %d bytes: %w", b, len(payloads)-at, rawLen, err)
		}
		payload := payloads[at:]
		crc := crc32.Update(seed, castagnoli, bh[0:12])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			return nil, fmt.Errorf("kv: spill block %d crc %08x, header says %08x: %w", b, crc, wantCRC, ErrChecksum)
		}
		k, s, err := checkBlock(h.Rank, bPairs, payload)
		if err != nil {
			return nil, fmt.Errorf("kv: spill block %d: %w", b, err)
		}
		kept = append(kept, struct{ pairs, bytes int }{bPairs, len(payload)})
		keys, samples = keys+k, samples+s
		remaining -= bPairs
	}
	if remaining != 0 {
		return nil, fmt.Errorf("kv: spill blocks hold %d pairs, header says %d: %w", h.Pairs-remaining, h.Pairs, ErrChecksum)
	}
	// Every count below is backed by bytes that arrived and passed.
	pairs := make([]Pair, h.Pairs)
	a := arenas{pairs: pairs, keys: make([]int64, keys*h.Rank), samples: make([]float64, samples)}
	for _, blk := range kept {
		a.fill(h.Rank, blk.pairs, payloads[:blk.bytes])
		payloads = payloads[blk.bytes:]
	}
	return pairs, nil
}

// keyRun is one decoded run of the key column.
type keyRun struct {
	step         [coords.MaxRank]int64
	mult, repeat int
}

// next parses the run at the head of b and returns the bytes after it.
// left is how many of the block's pairs no earlier run accounts for; a
// run that is malformed, empty, or yields more than left is refused.
func (r *keyRun) next(b []byte, rank, left int) ([]byte, error) {
	var u [coords.MaxRank + 2]uint64 // the steps (zig-zag), mult, repeat
	for i := 0; i < rank+2; i++ {
		n := 0
		if u[i], n = binary.Uvarint(b); n <= 0 {
			return nil, fmt.Errorf("kv: key run truncated or a varint overflows: %w", ErrChecksum)
		}
		b = b[n:]
	}
	for d := 0; d < rank; d++ {
		r.step[d] = int64(u[d]>>1) ^ -int64(u[d]&1) // as binary.Varint
	}
	mult, repeat := u[rank], u[rank+1]
	if mult == 0 || repeat == 0 || mult > uint64(left) || repeat > uint64(left)/mult {
		return nil, fmt.Errorf("kv: key run of %d keys × %d pairs with %d pairs left: %w", repeat, mult, left, ErrChecksum)
	}
	r.mult, r.repeat = int(mult), int(repeat)
	return b, nil
}

// checkBlock validates one block's raw payload of n pairs and returns
// how many distinct key slices and samples decoding it takes. Nothing is
// allocated; every count it returns is bounded by the payload's length.
func checkBlock(rank, n int, raw []byte) (keys, samples int, err error) {
	le := binary.LittleEndian
	if len(raw) < 5 {
		return 0, 0, fmt.Errorf("kv: block payload of %d bytes: %w", len(raw), ErrChecksum)
	}
	mask, nRuns := raw[0], le.Uint32(raw[1:5])
	if mask != maskFull && mask != maskAggregates && mask != maskSingletons {
		return 0, 0, fmt.Errorf("kv: block column mask %#x: %w", mask, ErrChecksum)
	}
	cols, left := raw[5:], n
	var run keyRun
	for r := uint32(0); r < nRuns; r++ {
		if cols, err = run.next(cols, rank, left); err != nil {
			return 0, 0, err
		}
		keys += run.repeat
		left -= run.mult * run.repeat
	}
	if left != 0 {
		return 0, 0, fmt.Errorf("kv: key runs cover %d of the block's %d pairs: %w", n-left, n, ErrChecksum)
	}

	// The value columns must fill the rest of the payload exactly.
	fixed, total := uint64(n)*uint64(colWidth(mask)), uint64(0)
	if mask == maskSingletons {
		total = uint64(n)
	}
	if mask == maskFull && uint64(len(cols)) >= fixed {
		for i := 0; i < n; i++ {
			total += uint64(le.Uint32(cols[5*8*n+4*i:]))
		}
	}
	if uint64(len(cols)) != fixed+total*8 {
		return 0, 0, fmt.Errorf("kv: block columns are %d bytes, mask %#x over %d pairs and %d samples needs %d: %w",
			len(cols), mask, n, total, fixed+total*8, ErrChecksum)
	}
	if mask == maskSingletons {
		for i := 0; i < n; i++ {
			if x := f64at(cols, i); x != x {
				return 0, 0, fmt.Errorf("kv: singleton block carries a NaN sample, which cannot derive its columns: %w", ErrChecksum)
			}
		}
	}
	return keys, int(total), nil
}

// arenas are a spill's three backing arrays, consumed from the front as
// its blocks are decoded: pairs of a repeated key share one key slice,
// and a pair's Samples is a cap-limited window of the sample array.
type arenas struct {
	pairs   []Pair
	keys    []int64
	samples []float64
}

// fill decodes a block checkBlock has accepted into the next n pairs.
func (a *arenas) fill(rank, n int, raw []byte) {
	le := binary.LittleEndian
	out := a.pairs[:n]
	a.pairs = a.pairs[n:]
	mask, cols := raw[0], raw[5:]
	var run keyRun
	var key [coords.MaxRank]int64
	for i := 0; i < n; {
		cols, _ = run.next(cols, rank, n-i)
		for k := 0; k < run.repeat; k++ {
			for d := 0; d < rank; d++ {
				key[d] += run.step[d]
			}
			kp := coords.Coord(a.keys[:rank:rank])
			a.keys = a.keys[rank:]
			copy(kp, key[:rank])
			for m := 0; m < run.mult; m++ {
				out[i].Key = kp
				i++
			}
		}
	}
	if mask == maskSingletons {
		ss := a.samples[:n]
		a.samples = a.samples[n:]
		for i := range out {
			x := f64at(cols, i)
			ss[i] = x
			v := &out[i].Value
			v.Sum, v.SumSq, v.Min, v.Max, v.Count, v.Samples = x, x*x, x, x, 1, ss[i:i+1:i+1]
		}
		return
	}
	for i := range out {
		v := &out[i].Value
		v.Sum, v.SumSq, v.Min, v.Max = f64at(cols, i), f64at(cols, n+i), f64at(cols, 2*n+i), f64at(cols, 3*n+i)
		v.Count = int64(le.Uint64(cols[8*(4*n+i):]))
	}
	if mask == maskAggregates {
		return
	}
	counts, vals := cols[5*8*n:], cols[(5*8+4)*n:]
	for i := range out {
		if c := int(le.Uint32(counts[4*i:])); c > 0 {
			ss := a.samples[:c:c]
			a.samples = a.samples[c:]
			for s := range ss {
				ss[s] = f64at(vals, s)
			}
			vals = vals[8*c:]
			out[i].Value.Samples = ss
		}
	}
}
