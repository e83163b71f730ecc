package spillstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
// byte-identical through Open, from both the committing store and a
// fresh store that must recover the directory from the trailer.
func TestPackRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pw, err := s.Begin("job1", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, pw, 0, "keyblock zero bytes")
	writeEntry(t, pw, 7, "")
	writeEntry(t, pw, 3, strings.Repeat("x", 70_000)) // spans bufio flushes
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store) {
		t.Helper()
		if got := readAll(t, s, "job1", 2, 0, 0); got != "keyblock zero bytes" {
			t.Fatalf("kb 0 = %q", got)
		}
		if got := readAll(t, s, "job1", 2, 0, 7); got != "" {
			t.Fatalf("kb 7 = %q, want empty", got)
		}
		if got := readAll(t, s, "job1", 2, 0, 3); len(got) != 70_000 {
			t.Fatalf("kb 3 length = %d", len(got))
		}
	}
	check(s)

	// A fresh store over the same root rebuilds the directory from disk.
	s2, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)

	// No temp files remain.
	if n := countTemps(t, root); n != 0 {
		t.Fatalf("%d temp files left after commit", n)
	}
}

// TestOpenMissing pins errNotFound for absent packs and absent entries.
func TestOpenMissing(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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

// TestAbortRemovesTemp: an aborted attempt leaves nothing behind — the
// temp-file leak the per-keyblock layout had on WriteSpill failure.
func TestAbortRemovesTemp(t *testing.T) {
	root := t.TempDir()
	s, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pw, err := s.Begin("job", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, pw, 0, "doomed")
	boom := errors.New("boom")
	if _, err := pw.Append(1, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v", err)
	}
	pw.Abort()
	if n := countTemps(t, root); n != 0 {
		t.Fatalf("%d temp files left after abort", n)
	}
	if _, _, err := s.Open("job", 0, 0, 0); !errors.Is(err, errNotFound) {
		t.Fatalf("aborted pack served: err = %v", err)
	}
}

// TestSweepTemps reclaims orphans a crashed attempt would leave.
func TestSweepTemps(t *testing.T) {
	root := t.TempDir()
	s, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := filepath.Join(root, "job")
	os.MkdirAll(dir, 0o755)
	for _, name := range []string{".pack-orphan1", ".spill-orphan2"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A live pack and a non-temp file must survive.
	pw, _ := s.Begin("job", 1, 0)
	writeEntry(t, pw, 0, "live")
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepTemps(0); n != 2 {
		t.Fatalf("swept %d temps, want 2", n)
	}
	if got := readAll(t, s, "job", 1, 0, 0); got != "live" {
		t.Fatalf("live pack damaged by sweep: %q", got)
	}
	// Fresh temps inside the age guard survive.
	if err := os.WriteFile(filepath.Join(dir, ".pack-fresh"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := s.SweepTemps(time.Hour); n != 0 {
		t.Fatalf("swept %d fresh temps, want 0", n)
	}
}

// TestReleaseAttempt removes exactly one attempt's pack.
func TestReleaseAttempt(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
}

// TestCorruptTrailerRejected: truncations and flipped directory bits
// must fail pack recovery, never misdirect a byte-range.
func TestCorruptTrailerRejected(t *testing.T) {
	root := t.TempDir()
	s, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	pw, _ := s.Begin("job", 0, 0)
	writeEntry(t, pw, 0, "payload bytes here")
	if err := pw.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(root, "job", "0-0.pack")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(b []byte) error {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		_, _, err = s2.Open("job", 0, 0, 0)
		return err
	}
	// Directory byte flip → crc mismatch.
	bad := append([]byte(nil), good...)
	bad[len(bad)-trailerLen-3] ^= 0x01
	if err := reopen(bad); !errors.Is(err, errCorruptPack) {
		t.Fatalf("flipped directory accepted: %v", err)
	}
	// Truncated trailer.
	if err := reopen(good[:len(good)-5]); !errors.Is(err, errCorruptPack) {
		t.Fatalf("truncated trailer accepted: %v", err)
	}
	// Intact file still loads.
	if err := reopen(good); err != nil {
		t.Fatalf("intact pack rejected: %v", err)
	}
}

// TestConcurrentOpens: many readers share one pack file safely.
func TestConcurrentOpens(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
}

func countTemps(t *testing.T, root string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".pack-") {
			n++
		}
		return nil
	})
	return n
}
