package spillstore

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func writeEntry(t *testing.T, pw *packWriter, kb int, payload string) {
	t.Helper()
	n, err := pw.Append(kb, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatalf("Append(%d): %v", kb, err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("Append(%d) = %d bytes, want %d", kb, n, len(payload))
	}
}

func readAll(t *testing.T, s *Store, job string, split, attempt, kb int) string {
	t.Helper()
	sr, _, err := s.Open(job, split, attempt, kb)
	if err != nil {
		t.Fatalf("Open(%s/%d-%d kb=%d): %v", job, split, attempt, kb, err)
	}
	b, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPackRoundTrip: entries written through a packWriter come back
// byte-identical through Open.
func TestPackRoundTrip(t *testing.T) {
	s := newStore(t)
	pw, err := s.Begin("job1", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, pw, 0, "keyblock zero bytes")
	writeEntry(t, pw, 7, "")
	writeEntry(t, pw, 3, strings.Repeat("x", 70_000))
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, "job1", 2, 0, 0); got != "keyblock zero bytes" {
		t.Fatalf("kb 0 = %q", got)
	}
	if got := readAll(t, s, "job1", 2, 0, 7); got != "" {
		t.Fatalf("kb 7 = %q, want empty", got)
	}
	if got := readAll(t, s, "job1", 2, 0, 3); got != strings.Repeat("x", 70_000) {
		t.Fatalf("kb 3 = %d bytes, want 70000 x", len(got))
	}
	assertHeld(t, s, 19+70_000, 1)
}

// TestOpenMissing pins errNotFound for absent packs and absent entries.
func TestOpenMissing(t *testing.T) {
	s := newStore(t)
	if _, _, err := s.Open("nope", 0, 0, 0); !errors.Is(err, errNotFound) {
		t.Fatalf("missing pack err = %v, want errNotFound", err)
	}
	pw, _ := s.Begin("job", 0, 0)
	writeEntry(t, pw, 1, "one")
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Open("job", 0, 0, 2); !errors.Is(err, errNotFound) {
		t.Fatalf("missing entry err = %v, want errNotFound", err)
	}
}

// TestAbortRegistersNothing: an aborted attempt, and an Append whose
// writer fails, leave nothing served and no bytes held.
func TestAbortRegistersNothing(t *testing.T) {
	s := newStore(t)
	pw, err := s.Begin("job", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, pw, 0, "doomed")
	boom := errors.New("boom")
	if _, err := pw.Append(1, func(w io.Writer) error {
		io.WriteString(w, "half a spill")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v", err)
	}
	pw.Abort()
	if _, _, err := s.Open("job", 0, 0, 0); !errors.Is(err, errNotFound) {
		t.Fatalf("aborted pack served: err = %v", err)
	}
	assertHeld(t, s, 0, 1)
}

// TestReleaseAttempt removes exactly one attempt's pack.
func TestReleaseAttempt(t *testing.T) {
	s := newStore(t)
	for attempt := 0; attempt < 2; attempt++ {
		pw, _ := s.Begin("job", 0, attempt)
		writeEntry(t, pw, 0, fmt.Sprintf("attempt %d", attempt))
		if err := pw.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.ReleaseAttempt("job", 0, 0)
	if _, _, err := s.Open("job", 0, 0, 0); !errors.Is(err, errNotFound) {
		t.Fatalf("released attempt still served: %v", err)
	}
	if got := readAll(t, s, "job", 0, 1, 0); got != "attempt 1" {
		t.Fatalf("surviving attempt = %q", got)
	}
	assertHeld(t, s, int64(len("attempt 1")), 1)
}

// TestLateCommitRegistersNothing: a pack whose job or attempt is
// released between Begin and Commit is neither served nor held, and a
// job ID used again starts a fresh entry that the orphan cannot touch.
func TestLateCommitRegistersNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(s *Store)
	}{
		{"job", func(s *Store) { s.ReleaseJob("job") }},
		{"attempt", func(s *Store) { s.ReleaseAttempt("job", 0, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t)
			pw, err := s.Begin("job", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			writeEntry(t, pw, 0, "late")
			tc.release(s)
			if err := pw.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Open("job", 0, 0, 0); !errors.Is(err, errNotFound) {
				t.Fatalf("pack committed after its release is served: err = %v", err)
			}
			if b, _ := s.Held(); b != 0 {
				t.Fatalf("store holds %d bytes after a late commit, want 0", b)
			}
			s.ReleaseJob("job")
			assertHeld(t, s, 0, 0)
		})
	}

	// The orphan of a released job commits after the reused ID's fresh
	// entry has a pack of its own under the same key.
	s := newStore(t)
	stale, _ := s.Begin("job", 0, 0)
	writeEntry(t, stale, 0, "stale")
	s.ReleaseJob("job")
	fresh, _ := s.Begin("job", 0, 0)
	writeEntry(t, fresh, 0, "fresh")
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := stale.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, "job", 0, 0, 0); got != "fresh" {
		t.Fatalf("reused job ID served %q, want the fresh job's pack", got)
	}
	assertHeld(t, s, int64(len("fresh")), 1)
}

// TestByteBound: an Append that would take the store past its bound
// fails with errFull and records nothing; the bytes freed by a release
// make room again.
func TestByteBound(t *testing.T) {
	s := newStore(t)
	s.limit = 10
	pw, _ := s.Begin("job", 0, 0)
	writeEntry(t, pw, 0, "123456")
	if _, err := pw.Append(1, func(w io.Writer) error {
		_, err := io.WriteString(w, "12345")
		return err
	}); !errors.Is(err, errFull) {
		t.Fatalf("Append past the bound: err = %v, want errFull", err)
	}
	assertHeld(t, s, 6, 1)
	writeEntry(t, pw, 1, "1234")
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, "job", 0, 0, 1); got != "1234" {
		t.Fatalf("kb 1 after a refused Append = %q", got)
	}
	other, _ := s.Begin("job", 1, 0)
	if _, err := other.Append(0, func(w io.Writer) error {
		_, err := io.WriteString(w, "1")
		return err
	}); !errors.Is(err, errFull) {
		t.Fatalf("Append on a full store: err = %v, want errFull", err)
	}
	other.Abort()
	s.ReleaseJob("job")
	assertHeld(t, s, 0, 0)
	again, _ := s.Begin("job", 0, 0)
	writeEntry(t, again, 0, "0123456789")
	again.Abort()
}

// TestConcurrentOpens: many readers share one pack safely.
func TestConcurrentOpens(t *testing.T) {
	s := newStore(t)
	pw, _ := s.Begin("job", 0, 0)
	for kb := 0; kb < 8; kb++ {
		writeEntry(t, pw, kb, strings.Repeat(fmt.Sprintf("<%d>", kb), 1000))
	}
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kb := g % 8
			want := strings.Repeat(fmt.Sprintf("<%d>", kb), 1000)
			for i := 0; i < 50; i++ {
				sr, _, err := s.Open("job", 0, 0, kb)
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				b, err := io.ReadAll(sr)
				if err != nil || string(b) != want {
					t.Errorf("kb %d read %d bytes, err=%v", kb, len(b), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// A reader obtained before the release still reads its bytes after.
	sr, _, err := s.Open("job", 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.ReleaseJob("job")
	if _, _, err := s.Open("job", 0, 0, 5); !errors.Is(err, errNotFound) {
		t.Fatalf("released pack still served: %v", err)
	}
	if b, err := io.ReadAll(sr); err != nil || string(b) != strings.Repeat("<5>", 1000) {
		t.Fatalf("reader opened before the release read %d bytes, err=%v", len(b), err)
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// assertHeld checks the store's byte count and number of job entries.
func assertHeld(t *testing.T, s *Store, bytes int64, jobs int) {
	t.Helper()
	if b, j := s.Held(); b != bytes || j != jobs {
		t.Fatalf("store holds %d bytes over %d jobs, want %d over %d", b, j, bytes, jobs)
	}
}
