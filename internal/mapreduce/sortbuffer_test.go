package mapreduce

import "testing"

// TestSortBufferBoundedMatchesUnbounded: bounding the Map-side sort
// buffer (forcing multiple sealed segments plus a map-side merge) must
// not change any result, for every operator class and barrier mode.
func TestSortBufferBoundedMatchesUnbounded(t *testing.T) {
	queries := []string{
		"median temp[0,0 : 28,10] es {7,5}",
		"avg temp[0,0 : 28,10] es {7,5}",
		"filter_gt temp[0,0 : 20,20] es {4,4} param 30",
		"sort temp[0,0 : 12,6] es {3,3}",
	}
	for _, qs := range queries {
		for _, sidr := range []bool{false, true} {
			for _, combine := range []bool{false, true} {
				for _, bound := range []int64{1, 7, 64} {
					q := mustParse(t, qs)
					ref := referenceResults(t, q, synthValue)
					cfg := buildJob(t, q, 3, sidr, combine)
					cfg.SortBufferRecords = bound
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s sidr=%v combine=%v bound=%d: %v", qs, sidr, combine, bound, err)
					}
					checkAgainstReference(t, res, ref)
				}
			}
		}
	}
}

// TestSortBufferAffectsUncombinedPairCount: with combining disabled, a
// tight buffer cannot fold pairs across segments, so the shuffle carries
// at least as many pairs as the unbounded run; with combining enabled
// the map-side merge restores the fully folded count.
func TestSortBufferAffectsUncombinedPairCount(t *testing.T) {
	q := mustParse(t, "median temp[0,0 : 28,10] es {7,5}")
	unbounded := buildJob(t, q, 2, true, true)
	r1, err := Run(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	bounded := buildJob(t, q, 2, true, true)
	bounded.SortBufferRecords = 5
	r2, err := Run(bounded)
	if err != nil {
		t.Fatal(err)
	}
	// Median is holistic: combining is skipped either way, so segments
	// seal partial per-key values that cannot be folded map-side.
	if r2.Counters.MapPairsOut < r1.Counters.MapPairsOut {
		t.Fatalf("bounded buffer folded more than unbounded: %d vs %d",
			r2.Counters.MapPairsOut, r1.Counters.MapPairsOut)
	}
	// A distributive operator with combining recovers the folded count.
	qa := mustParse(t, "avg temp[0,0 : 28,10] es {7,5}")
	a1, err := Run(buildJob(t, qa, 2, true, true))
	if err != nil {
		t.Fatal(err)
	}
	ab := buildJob(t, qa, 2, true, true)
	ab.SortBufferRecords = 5
	a2, err := Run(ab)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Counters.MapPairsOut != a1.Counters.MapPairsOut {
		t.Fatalf("map-side merge did not restore folded count: %d vs %d",
			a2.Counters.MapPairsOut, a1.Counters.MapPairsOut)
	}
}
