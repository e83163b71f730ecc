// Package spillstore holds a worker's spill packs in memory: one byte
// slice per (job, split, attempt) holding that Map attempt's keyblock
// spills, served as byte ranges. A fetch the worker cannot serve
// re-executes its split, so nothing goes to disk.
package spillstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// maxBytes bounds the spill bytes one store holds, committed or being
// written. An uncombined job spills about 8.4 B a point (ROADMAP item
// 3), so 1 GiB holds the unreleased spills of about 128 M input points:
// sixteen jobs at the 8 M points of that item's planned large scale.
const maxBytes = 1 << 30

// Errors: no pack or keyblock for a spill; an Append past the bound.
var (
	errNotFound = errors.New("spillstore: spill not found")
	errFull     = errors.New("spillstore: spill bytes over the store's bound")
)

type packKey struct{ split, attempt int }
type dirEntry struct{ off, length int64 }

// pack is one committed, immutable pack.
type pack struct {
	buf []byte
	dir map[int]dirEntry
	at  time.Time
}

// jobPacks is one job's packs; a nil pack marks an attempt released
// before it committed, and dropped an entry ReleaseJob removed.
type jobPacks struct {
	packs   map[packKey]*pack
	dropped bool
}

// Store holds the packs of one worker.
type Store struct {
	limit int64
	mu    sync.Mutex
	jobs  map[string]*jobPacks
	bytes int64
}

// New returns an empty store. root is unread: it stays only because
// bench/replay.go calls New with it. The error is always nil.
func New(root string) (*Store, error) {
	return &Store{limit: maxBytes, jobs: make(map[string]*jobPacks)}, nil
}

// packWriter builds one Map attempt's pack until Commit or Abort.
type packWriter struct {
	s    *Store
	e    *jobPacks
	k    packKey
	buf  bytes.Buffer
	dir  map[int]dirEntry
	done bool
}

// Begin starts the pack of one (job, split, attempt) in the job's entry
// as it stands now, starting a fresh entry if the job has none.
func (s *Store) Begin(job string, split, attempt int) (*packWriter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.jobs[job]
	if e == nil {
		e = &jobPacks{packs: make(map[packKey]*pack)}
		s.jobs[job] = e
	}
	return &packWriter{s: s, e: e, k: packKey{split, attempt}, dir: make(map[int]dirEntry)}, nil
}

// Append writes one keyblock's spill via fn and returns its length. Past
// the store's byte bound it fails and records nothing.
func (pw *packWriter) Append(keyblock int, fn func(io.Writer) error) (int64, error) {
	off := pw.buf.Len()
	if err := fn(&pw.buf); err != nil {
		pw.buf.Truncate(off)
		return 0, err
	}
	n := int64(pw.buf.Len() - off)
	s := pw.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bytes+n > s.limit {
		pw.buf.Truncate(off)
		return 0, fmt.Errorf("%w: %d held + %d > %d", errFull, s.bytes, n, s.limit)
	}
	s.bytes += n
	pw.dir[keyblock] = dirEntry{off: int64(off), length: n}
	return n, nil
}

// Commit registers the pack in the entry Begin captured, replacing any
// pack of the same attempt (duplicate Map attempts are idempotent). A
// pack released after Begin registers nothing. The error is always nil.
func (pw *packWriter) Commit() error {
	pw.finish(true)
	return nil
}

// Abort discards the pack. Safe after Commit (no-op).
func (pw *packWriter) Abort() { pw.finish(false) }

// finish commits or discards the pack, once.
func (pw *packWriter) finish(commit bool) {
	s, e := pw.s, pw.e
	s.mu.Lock()
	defer s.mu.Unlock()
	if pw.done {
		return
	}
	pw.done = true
	old, seen := e.packs[pw.k]
	if !commit || e.dropped || seen && old == nil {
		s.bytes -= int64(pw.buf.Len())
		return
	}
	if old != nil {
		s.bytes -= int64(len(old.buf))
	}
	e.packs[pw.k] = &pack{buf: pw.buf.Bytes(), dir: pw.dir, at: time.Now()}
}

// Open returns a reader over one keyblock's spill and its pack's commit
// time. The reader stays valid after the pack is released.
func (s *Store) Open(job string, split, attempt, keyblock int) (*io.SectionReader, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.jobs[job]; e != nil {
		if p := e.packs[packKey{split, attempt}]; p != nil {
			if d, ok := p.dir[keyblock]; ok {
				return io.NewSectionReader(bytes.NewReader(p.buf), d.off, d.length), p.at, nil
			}
		}
	}
	return nil, time.Time{}, errNotFound
}

// ReleaseJob forgets the job's entry and its packs. A pack still being
// written registers nothing; a reused job ID starts a fresh entry.
func (s *Store) ReleaseJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.jobs[job]; e != nil {
		s.dropLocked(job, e)
	}
}

// dropLocked forgets job's entry e. Caller holds s.mu.
func (s *Store) dropLocked(job string, e *jobPacks) {
	for _, p := range e.packs {
		if p != nil {
			s.bytes -= int64(len(p.buf))
		}
	}
	e.dropped = true
	delete(s.jobs, job)
}

// ReleaseAttempt forgets one attempt's pack (a speculation loser or a
// superseded attempt). One still being written registers nothing.
func (s *Store) ReleaseAttempt(job string, split, attempt int) {
	k := packKey{split, attempt}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.jobs[job]; e != nil {
		if p := e.packs[k]; p != nil {
			s.bytes -= int64(len(p.buf))
		}
		e.packs[k] = nil
	}
}

// Held reports the spill bytes held, committed or being written, and
// the number of jobs with an entry.
func (s *Store) Held() (bytes int64, jobs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.jobs)
}

// Close releases every job. The error is always nil.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for job, e := range s.jobs {
		s.dropLocked(job, e)
	}
	return nil
}
