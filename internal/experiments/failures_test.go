package experiments

import (
	"strings"
	"testing"
)

func TestFailureStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	rows, err := failuresSeed1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// §6 hypothesis: with no failures, skipping persistence wins (its
	// Map phase is faster).
	if !(rows[0].RecomputeMakespan < rows[0].PersistMakespan) {
		t.Fatalf("no-persist not faster at p=0: %v vs %v",
			rows[0].RecomputeMakespan, rows[0].PersistMakespan)
	}
	if rows[0].PersistFailures != 0 || rows[0].RecomputeFailures != 0 {
		t.Fatalf("failures at p=0: %+v", rows[0])
	}
	// At a 50% failure rate re-execution dominates and persisting wins.
	if !(rows[1].PersistMakespan < rows[1].RecomputeMakespan) {
		t.Fatalf("persist not faster at p=0.5: %v vs %v",
			rows[1].PersistMakespan, rows[1].RecomputeMakespan)
	}
	if rows[1].PersistFailures == 0 {
		t.Fatal("no failures injected at p=0.5")
	}
	if !strings.Contains(rows[0].Format(), "winner=") {
		t.Fatalf("format = %q", rows[0].Format())
	}
}
