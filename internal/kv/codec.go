package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sidr/internal/coords"
)

// This file implements the byte representation of intermediate data:
// the Map output "spills" Reduce tasks fetch during the shuffle, held as
// byte slices in the cluster worker's memory (internal/spillstore).
// Each spill carries a header with the SIDR kv-count annotation — §3.2.1:
// "the addition of a field to the header for each Map output file that
// indicates how many ⟨k,v⟩ are represented by the set of all ⟨k',v'⟩ in
// that file" — so a Reduce task can tally its inputs without parsing
// pair bodies.
//
// There is one format, version 5: the block-framed structural layout
// documented in codecblock.go. This file holds the header, the errors
// and the read entry points; anything that is not a version-5 spill —
// the retired versions 2, 3 and 4 included — is rejected with
// errBadSpillVersion.

var spillMagic = [4]byte{'S', 'P', 'I', 'L'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the codec.
var (
	errBadSpillMagic   = errors.New("kv: bad spill magic")
	errBadSpillVersion = errors.New("kv: unsupported spill version")
	// ErrChecksum reports that a spill block does not match the CRC32C
	// recorded in its block header — the bytes were corrupted between
	// the Map task's write and this read.
	ErrChecksum = errors.New("kv: spill payload checksum mismatch")
)

// spillHeader is the metadata of one Map output partition file.
type spillHeader struct {
	// Rank is the dimensionality of the intermediate keys.
	Rank int
	// SourceCount is the number of source ⟨k,v⟩ pairs the file's
	// contents represent — the SIDR annotation.
	SourceCount int64
	// Pairs is the number of ⟨k',v'⟩ records in the file.
	Pairs int
	// Blocks is the block count.
	Blocks int
}

// readSpillHeader reads and validates the fixed file header. raw is the
// exact header bytes consumed, which the body reader folds into its
// per-block CRC seed.
func readSpillHeader(r io.Reader) (h spillHeader, raw [spillHeaderLen]byte, err error) {
	// The magic and version are read and judged first, so a foreign or
	// old-format file is named as such rather than reported as truncated.
	if _, err := io.ReadFull(r, raw[:6]); err != nil {
		return spillHeader{}, raw, err
	}
	le := binary.LittleEndian
	if [4]byte(raw[:4]) != spillMagic {
		return spillHeader{}, raw, errBadSpillMagic
	}
	if v := le.Uint16(raw[4:6]); v != spillVersion {
		return spillHeader{}, raw, fmt.Errorf("%w: %d", errBadSpillVersion, v)
	}
	if _, err := io.ReadFull(r, raw[6:]); err != nil {
		return spillHeader{}, raw, err
	}
	h.Rank = int(le.Uint32(raw[6:10]))
	if h.Rank <= 0 || h.Rank > coords.MaxRank {
		return spillHeader{}, raw, fmt.Errorf("kv: implausible spill rank %d", h.Rank)
	}
	h.SourceCount = int64(le.Uint64(raw[10:18]))
	h.Pairs = int(le.Uint32(raw[18:22]))
	if flags := le.Uint16(raw[22:24]); flags != 0 {
		// No flag is defined; and on a blockless (empty) spill no block
		// CRC exists to catch the flip.
		return spillHeader{}, raw, fmt.Errorf("kv: unknown spill flags %#x: %w", flags, errBadSpillVersion)
	}
	h.Blocks = int(le.Uint32(raw[24:28]))
	return h, raw, nil
}

// ReadSpill deserialises a full spill file, verifying every block's
// checksum. A mismatch returns ErrChecksum — the caller must treat the
// spill as lost, never merge its pairs.
func ReadSpill(r io.Reader) (spillHeader, []Pair, error) {
	br := bufio.NewReader(r)
	h, raw, err := readSpillHeader(br)
	if err != nil {
		return spillHeader{}, nil, err
	}
	pairs, err := readBlocks(br, h, headerCRCSeed(raw[:]))
	return h, pairs, err
}
