// Package spillstore implements the worker-side spill pack: one
// append-only file per (job, split, attempt) holding every keyblock
// spill that Map attempt produced, with an in-memory keyblock →
// (offset, length) directory for serving.
//
// The pack replaces the one-file-per-keyblock layout
// (job/split-attempt/kb-N.spill): a Map attempt with k keyblocks costs
// one create + one rename instead of k of each, and the shuffle serves
// a spill as a byte-range copy off the pack — the worker never
// re-decodes a pair it already encoded.
//
// On-disk layout:
//
//	root/<job>/<split>-<attempt>.pack
//
//	entry bytes (each a complete kv spill stream)
//	directory:
//	  u32 nEntries
//	  nEntries × ( u32 keyblock | u64 offset | u64 length )
//	trailer (12 bytes):
//	  u32 dirLen   (bytes of the directory block above)
//	  u32 crc32c   (of the directory block)
//	  magic "SPKF"
//
// The directory lives at the tail so writes stay strictly append-only;
// a reader recovers it by reading the fixed trailer, then the dirLen
// bytes before it. Packs are written to a ".pack-*" temp and renamed on
// Commit, so a concurrent fetch never observes a partial pack; Abort
// removes the temp, and SweepTemps reclaims any orphans left by a
// crashed attempt.
package spillstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

var packMagic = [4]byte{'S', 'P', 'K', 'F'}

const (
	trailerLen  = 12
	dirEntryLen = 20
	// maxDirLen caps the directory size a reader will buffer; a pack
	// directory is ~20 bytes per keyblock, so even huge plans stay far
	// below this.
	maxDirLen = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors reported by the store.
var (
	// errNotFound reports that no pack (or no entry within the pack)
	// exists for the requested spill.
	errNotFound = errors.New("spillstore: spill not found")
	// errCorruptPack reports a pack whose trailer or directory fails
	// validation.
	errCorruptPack = errors.New("spillstore: corrupt pack")
)

type packKey struct {
	job            string
	split, attempt int
}

type dirEntry struct {
	off, length int64
}

// pack is one committed, immutable pack file held open for serving.
// Concurrent readers share the *os.File through io.SectionReader
// (ReadAt is safe for concurrent use).
type pack struct {
	f     *os.File
	dir   map[int]dirEntry
	mtime time.Time
}

// Store manages the pack files under one root directory.
type Store struct {
	root string

	mu     sync.Mutex
	packs  map[packKey]*pack
	closed bool
}

// New opens (creating if needed) a store rooted at dir. Existing pack
// files are loaded lazily on first Open.
func New(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("spillstore: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Store{root: root, packs: make(map[packKey]*pack)}, nil
}

func (s *Store) packPath(k packKey) string {
	return filepath.Join(s.root, k.job, fmt.Sprintf("%d-%d.pack", k.split, k.attempt))
}

// packWriter accumulates one Map attempt's keyblock spills into a pack
// temp file. Exactly one of Commit or Abort must be called.
type packWriter struct {
	s    *Store
	k    packKey
	f    *os.File
	bw   *bufio.Writer
	off  int64
	kbs  []int
	ents []dirEntry
	done bool
}

// Begin starts writing the pack for one (job, split, attempt).
func (s *Store) Begin(job string, split, attempt int) (*packWriter, error) {
	dir := filepath.Join(s.root, job)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, ".pack-*")
	if err != nil {
		return nil, err
	}
	return &packWriter{
		s:  s,
		k:  packKey{job: job, split: split, attempt: attempt},
		f:  f,
		bw: bufio.NewWriterSize(f, 1<<16),
	}, nil
}

// countWriter tracks bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Append writes one keyblock's spill via fn and records it in the
// directory. Returns the entry's byte length.
func (pw *packWriter) Append(keyblock int, fn func(io.Writer) error) (int64, error) {
	cw := &countWriter{w: pw.bw}
	if err := fn(cw); err != nil {
		return 0, err
	}
	pw.kbs = append(pw.kbs, keyblock)
	pw.ents = append(pw.ents, dirEntry{off: pw.off, length: cw.n})
	pw.off += cw.n
	return cw.n, nil
}

// Commit appends the directory and trailer, renames the temp into
// place, and registers the pack for serving. A pack committed for a
// (job, split, attempt) that already has one replaces it — duplicate
// Map attempts are idempotent re-writes.
func (pw *packWriter) Commit() error {
	if pw.done {
		return fmt.Errorf("spillstore: pack writer already finished")
	}
	pw.done = true
	le := binary.LittleEndian
	dir := make([]byte, 4+dirEntryLen*len(pw.ents))
	le.PutUint32(dir[0:4], uint32(len(pw.ents)))
	for i, e := range pw.ents {
		p := dir[4+i*dirEntryLen:]
		le.PutUint32(p[0:4], uint32(pw.kbs[i]))
		le.PutUint64(p[4:12], uint64(e.off))
		le.PutUint64(p[12:20], uint64(e.length))
	}
	var trailer [trailerLen]byte
	le.PutUint32(trailer[0:4], uint32(len(dir)))
	le.PutUint32(trailer[4:8], crc32.Checksum(dir, castagnoli))
	copy(trailer[8:12], packMagic[:])
	if _, err := pw.bw.Write(dir); err != nil {
		return pw.fail(err)
	}
	if _, err := pw.bw.Write(trailer[:]); err != nil {
		return pw.fail(err)
	}
	if err := pw.bw.Flush(); err != nil {
		return pw.fail(err)
	}

	final := pw.s.packPath(pw.k)
	if err := os.Rename(pw.f.Name(), final); err != nil {
		return pw.fail(err)
	}
	m := make(map[int]dirEntry, len(pw.ents))
	for i, kb := range pw.kbs {
		m[kb] = pw.ents[i]
	}
	p := &pack{f: pw.f, dir: m, mtime: time.Now()}

	s := pw.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		p.f.Close()
		os.Remove(final)
		return fmt.Errorf("spillstore: store closed")
	}
	if old, ok := s.packs[pw.k]; ok {
		old.f.Close()
	}
	s.packs[pw.k] = p
	return nil
}

func (pw *packWriter) fail(err error) error {
	pw.f.Close()
	os.Remove(pw.f.Name())
	return err
}

// Abort discards the pack temp file. Safe after Commit (no-op).
func (pw *packWriter) Abort() {
	if pw.done {
		return
	}
	pw.done = true
	pw.f.Close()
	os.Remove(pw.f.Name())
}

// Open returns a reader over one keyblock's spill bytes plus the
// pack's modification time. The returned SectionReader stays valid
// until the pack is released; concurrent Opens share the underlying
// file.
func (s *Store) Open(job string, split, attempt, keyblock int) (*io.SectionReader, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, time.Time{}, fmt.Errorf("spillstore: store closed")
	}
	k := packKey{job: job, split: split, attempt: attempt}
	p, ok := s.packs[k]
	if !ok {
		var err error
		if p, err = loadPack(s.packPath(k)); err != nil {
			if os.IsNotExist(err) {
				return nil, time.Time{}, errNotFound
			}
			return nil, time.Time{}, err
		}
		s.packs[k] = p
	}
	e, ok := p.dir[keyblock]
	if !ok {
		return nil, time.Time{}, fmt.Errorf("%w: keyblock %d not in pack %s/%d-%d",
			errNotFound, keyblock, job, split, attempt)
	}
	return io.NewSectionReader(p.f, e.off, e.length), p.mtime, nil
}

// loadPack opens an existing pack file and rebuilds its directory from
// the trailer.
func loadPack(path string) (_ *pack, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size < trailerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", errCorruptPack, size)
	}
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, err
	}
	if [4]byte(trailer[8:12]) != packMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", errCorruptPack)
	}
	le := binary.LittleEndian
	dirLen := int64(le.Uint32(trailer[0:4]))
	if dirLen < 4 || dirLen > maxDirLen || dirLen > size-trailerLen {
		return nil, fmt.Errorf("%w: implausible directory length %d", errCorruptPack, dirLen)
	}
	dir := make([]byte, dirLen)
	dataEnd := size - trailerLen - dirLen
	if _, err := f.ReadAt(dir, dataEnd); err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(dir, castagnoli), le.Uint32(trailer[4:8]); got != want {
		return nil, fmt.Errorf("%w: directory crc %08x, trailer says %08x", errCorruptPack, got, want)
	}
	n := int(le.Uint32(dir[0:4]))
	if int64(4+n*dirEntryLen) != dirLen {
		return nil, fmt.Errorf("%w: %d entries need %d directory bytes, have %d",
			errCorruptPack, n, 4+n*dirEntryLen, dirLen)
	}
	m := make(map[int]dirEntry, n)
	for i := 0; i < n; i++ {
		p := dir[4+i*dirEntryLen:]
		kb := int(le.Uint32(p[0:4]))
		e := dirEntry{off: int64(le.Uint64(p[4:12])), length: int64(le.Uint64(p[12:20]))}
		if e.off < 0 || e.length < 0 || e.off+e.length > dataEnd {
			return nil, fmt.Errorf("%w: entry kb=%d [%d,+%d) outside data bytes [0,%d)",
				errCorruptPack, kb, e.off, e.length, dataEnd)
		}
		m[kb] = e
	}
	return &pack{f: f, dir: m, mtime: info.ModTime()}, nil
}

// ReleaseJob closes and forgets every pack of one job. It does not
// remove files — callers that own the root remove the job directory.
func (s *Store) ReleaseJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range s.packs {
		if k.job == job {
			p.f.Close()
			delete(s.packs, k)
		}
	}
}

// ReleaseAttempt closes, forgets and deletes one attempt's pack (a
// speculation loser or superseded attempt being reclaimed).
func (s *Store) ReleaseAttempt(job string, split, attempt int) {
	k := packKey{job: job, split: split, attempt: attempt}
	s.mu.Lock()
	if p, ok := s.packs[k]; ok {
		p.f.Close()
		delete(s.packs, k)
	}
	s.mu.Unlock()
	os.Remove(s.packPath(k))
}

// SweepTemps removes orphaned ".pack-*" and ".spill-*" temp files under
// the root that are older than olderThan — the leavings of attempts
// that died mid-write. Returns how many were removed.
func (s *Store) SweepTemps(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if !strings.HasPrefix(name, ".pack-") && !strings.HasPrefix(name, ".spill-") {
			return nil
		}
		info, err := d.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return nil
		}
		if os.Remove(path) == nil {
			removed++
		}
		return nil
	})
	return removed
}

// Close closes every open pack handle. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for k, p := range s.packs {
		if err := p.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.packs, k)
	}
	s.closed = true
	return first
}
