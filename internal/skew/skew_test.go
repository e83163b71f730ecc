package skew

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Keyblocks != 0 || s.Total != 0 || s.Gini != 0 {
		t.Fatalf("empty = %+v", s)
	}
}

func TestSummarizeUniform(t *testing.T) {
	s := Summarize([]int64{10, 10, 10, 10})
	if s.Starved != 0 || s.Max != 10 || s.Min != 10 {
		t.Fatalf("uniform = %+v", s)
	}
	if s.MaxOverMean != 1 || s.CV != 0 {
		t.Fatalf("uniform imbalance nonzero: %+v", s)
	}
	if math.Abs(s.Gini) > 1e-12 {
		t.Fatalf("uniform gini = %v", s.Gini)
	}
}

func TestSummarizePathological(t *testing.T) {
	// The §4.3 case: half the keyblocks starve, the rest carry double.
	s := Summarize([]int64{20, 0, 20, 0, 20, 0})
	if s.Starved != 3 {
		t.Fatalf("starved = %d", s.Starved)
	}
	if s.MaxOverMean != 2 {
		t.Fatalf("max/mean = %v", s.MaxOverMean)
	}
	if s.CV != 1 {
		t.Fatalf("cv = %v", s.CV)
	}
	if math.Abs(s.Gini-0.5) > 1e-12 {
		t.Fatalf("gini = %v, want 0.5", s.Gini)
	}
}

func TestSummarizeSingleHolder(t *testing.T) {
	s := Summarize([]int64{0, 0, 0, 100})
	if s.Gini < 0.74 || s.Gini >= 1 {
		t.Fatalf("gini = %v", s.Gini)
	}
	if s.Max != 100 || s.Min != 0 || s.Total != 100 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestFormat(t *testing.T) {
	out := Summarize([]int64{1, 2, 3}).Format()
	for _, part := range []string{"keyblocks=3", "total=6", "gini="} {
		if !strings.Contains(out, part) {
			t.Fatalf("format %q missing %q", out, part)
		}
	}
}

func TestBalanced(t *testing.T) {
	if !Balanced([]int64{10, 11, 9}, 2) {
		t.Fatal("near-uniform rejected")
	}
	if Balanced([]int64{10, 0, 20}, 2) {
		t.Fatal("starved accepted")
	}
	if Balanced([]int64{10, 10, 30}, 5) {
		t.Fatal("outlier accepted")
	}
	if !Balanced(nil, 0) {
		t.Fatal("empty rejected")
	}
}

func TestQuickGiniBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loads := make([]int64, 1+r.Intn(30))
		for i := range loads {
			loads[i] = r.Int63n(100)
		}
		s := Summarize(loads)
		if s.Total == 0 {
			return s.Gini == 0
		}
		// Gini lies in [0, 1) and is invariant under permutation.
		if s.Gini < -1e-9 || s.Gini >= 1 {
			return false
		}
		r.Shuffle(len(loads), func(i, j int) { loads[i], loads[j] = loads[j], loads[i] })
		s2 := Summarize(loads)
		return math.Abs(s.Gini-s2.Gini) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleInvariance(t *testing.T) {
	// Gini, CV and MaxOverMean are scale-invariant.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loads := make([]int64, 2+r.Intn(20))
		for i := range loads {
			loads[i] = 1 + r.Int63n(50)
		}
		scaled := make([]int64, len(loads))
		for i := range loads {
			scaled[i] = loads[i] * 7
		}
		a, b := Summarize(loads), Summarize(scaled)
		return math.Abs(a.Gini-b.Gini) < 1e-9 &&
			math.Abs(a.CV-b.CV) < 1e-9 &&
			math.Abs(a.MaxOverMean-b.MaxOverMean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Balanced reports whether loads satisfy partition+'s guarantee: no
// starved keyblock and every load within `slack` of the mean (e.g. one
// tile instance).
func Balanced(loads []int64, slack int64) bool {
	if len(loads) == 0 {
		return true
	}
	var total int64
	for _, l := range loads {
		if l == 0 {
			return false
		}
		total += l
	}
	mean := float64(total) / float64(len(loads))
	for _, l := range loads {
		if math.Abs(float64(l)-mean) > float64(slack) {
			return false
		}
	}
	return true
}
