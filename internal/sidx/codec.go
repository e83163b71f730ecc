package sidx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"sidr/internal/coords"
)

// This file implements the versioned on-disk format of the structural
// index, mirroring the kv spill codec's integrity idiom: a magic tag,
// an explicit version, and a CRC32C of the payload recorded in the
// header ahead of the bytes it covers. A stale or truncated sidecar is
// rejected rather than silently pruning against wrong statistics —
// pruning correctness depends on the stats being the dataset's.
//
// Layout (little-endian):
//
//	magic "SIDX" | u16 version | u32 nVars | u32 crc32c(payload)
//	payload: nVars × (
//	    u16 nameLen | nameLen bytes
//	    u16 rank | rank × i64 shape
//	    u32 nBlocks | nBlocks × ( i64 row0 | i64 rows
//	                              | f64 min | f64 max | i64 count )
//	)

var indexMagic = [4]byte{'S', 'I', 'D', 'X'}

const indexVersion uint16 = 1

// indexHeaderLen is the fixed byte length of the header:
// magic(4) + version(2) + nVars(4) + crc(4).
const indexHeaderLen = 14

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the codec.
var (
	errBadMagic   = errors.New("sidx: bad index magic")
	errBadVersion = errors.New("sidx: unsupported index version")
	// errChecksum reports that the payload does not match the CRC32C in
	// the header — the index bytes were corrupted since they were
	// written; pruning with them would be unsound.
	errChecksum = errors.New("sidx: index payload checksum mismatch")
)

// writeIndex serialises the index.
func writeIndex(w io.Writer, ix *Index) error {
	payload, err := encodePayload(ix)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	var hdr [indexHeaderLen]byte
	copy(hdr[:4], indexMagic[:])
	le.PutUint16(hdr[4:6], indexVersion)
	le.PutUint32(hdr[6:10], uint32(len(ix.Vars)))
	le.PutUint32(hdr[10:14], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

func encodePayload(ix *Index) ([]byte, error) {
	var bw bytes.Buffer
	le := binary.LittleEndian
	var b8 [8]byte
	put64 := func(v uint64) {
		le.PutUint64(b8[:], v)
		bw.Write(b8[:])
	}
	put32 := func(v uint32) {
		var b [4]byte
		le.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	put16 := func(v uint16) {
		var b [2]byte
		le.PutUint16(b[:], v)
		bw.Write(b[:])
	}
	for _, vi := range ix.Vars {
		if len(vi.Variable) > math.MaxUint16 {
			return nil, fmt.Errorf("sidx: variable name too long (%d bytes)", len(vi.Variable))
		}
		if vi.Shape.Rank() > coords.MaxRank {
			return nil, fmt.Errorf("sidx: implausible rank %d", vi.Shape.Rank())
		}
		put16(uint16(len(vi.Variable)))
		bw.WriteString(vi.Variable)
		put16(uint16(vi.Shape.Rank()))
		for _, d := range vi.Shape {
			put64(uint64(d))
		}
		put32(uint32(len(vi.Blocks)))
		for _, blk := range vi.Blocks {
			put64(uint64(blk.Row0))
			put64(uint64(blk.Rows))
			put64(math.Float64bits(blk.Min))
			put64(math.Float64bits(blk.Max))
			put64(uint64(blk.Count))
		}
	}
	return bw.Bytes(), nil
}

// readIndex deserialises an index, verifying the payload against the
// header's CRC32C. A mismatch returns errChecksum; the caller must
// discard the index and rebuild.
func readIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var hdr [indexHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != indexMagic {
		return nil, errBadMagic
	}
	le := binary.LittleEndian
	if le.Uint16(hdr[4:6]) != indexVersion {
		return nil, errBadVersion
	}
	nVars := int(le.Uint32(hdr[6:10]))
	wantCRC := le.Uint32(hdr[10:14])

	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return nil, fmt.Errorf("sidx: index crc mismatch: %w", errChecksum)
	}

	pr := bytes.NewReader(payload)
	var b8 [8]byte
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(pr, b8[:]); err != nil {
			return 0, err
		}
		return le.Uint64(b8[:]), nil
	}
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(pr, b8[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(b8[:4]), nil
	}
	get16 := func() (uint16, error) {
		if _, err := io.ReadFull(pr, b8[:2]); err != nil {
			return 0, err
		}
		return le.Uint16(b8[:2]), nil
	}

	// Counts are untrusted even after the CRC (a corrupt file can still
	// carry a matching checksum of garbage): cap preallocation and let
	// append grow as data actually arrives.
	ix := &Index{Vars: make([]*VarIndex, 0, min(nVars, 64))}
	for v := 0; v < nVars; v++ {
		nameLen, err := get16()
		if err != nil {
			return nil, fmt.Errorf("sidx: truncated index var %d: %w", v, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(pr, name); err != nil {
			return nil, fmt.Errorf("sidx: truncated index var %d: %w", v, err)
		}
		rank, err := get16()
		if err != nil {
			return nil, err
		}
		if int(rank) > coords.MaxRank {
			return nil, fmt.Errorf("sidx: implausible rank %d", rank)
		}
		shape := make(coords.Shape, rank)
		for d := range shape {
			u, err := get64()
			if err != nil {
				return nil, err
			}
			shape[d] = int64(u)
		}
		nBlocks, err := get32()
		if err != nil {
			return nil, err
		}
		vi := &VarIndex{
			Variable: string(name),
			Shape:    shape,
			Blocks:   make([]rowBlock, 0, min(int(nBlocks), 1024)),
		}
		for b := uint32(0); b < nBlocks; b++ {
			var blk rowBlock
			u, err := get64()
			if err != nil {
				return nil, fmt.Errorf("sidx: truncated block %d of %q: %w", b, vi.Variable, err)
			}
			blk.Row0 = int64(u)
			if u, err = get64(); err != nil {
				return nil, err
			}
			blk.Rows = int64(u)
			if u, err = get64(); err != nil {
				return nil, err
			}
			blk.Min = math.Float64frombits(u)
			if u, err = get64(); err != nil {
				return nil, err
			}
			blk.Max = math.Float64frombits(u)
			if u, err = get64(); err != nil {
				return nil, err
			}
			blk.Count = int64(u)
			vi.Blocks = append(vi.Blocks, blk)
		}
		ix.Vars = append(ix.Vars, vi)
	}
	if pr.Len() != 0 {
		return nil, fmt.Errorf("sidx: %d trailing bytes after index payload", pr.Len())
	}
	return ix, nil
}

// EncodedSize returns the serialised byte size of the index.
func (ix *Index) EncodedSize() int64 {
	payload, err := encodePayload(ix)
	if err != nil {
		return 0
	}
	return int64(indexHeaderLen + len(payload))
}

// Fingerprint is a stable identity of the variable's statistics — the
// CRC32C of its single-variable encoding. Pruning is data-dependent, so
// a cache keyed on (shape, query, engine) alone would be poisoned by it;
// mixing the fingerprint into a dataset's version scopes cached pruned
// results to the exact index that produced them.
func (vi *VarIndex) Fingerprint() uint32 {
	vi.fpOnce.Do(func() {
		payload, err := encodePayload(&Index{Vars: []*VarIndex{vi}})
		if err == nil {
			vi.fp = crc32.Checksum(payload, castagnoli)
		}
	})
	return vi.fp
}

// Save writes the index to path atomically (temp file + rename), so a
// concurrent reader never observes a half-written sidecar.
func (ix *Index) Save(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sidx-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := writeIndex(tmp, ix); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads an index sidecar from disk.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readIndex(f)
}
