package join

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/query"
)

// refSampleSide is the per-point definition of a side's sampled load:
// every present cell of every sampleStride-th leading-dimension row of
// each split's live region that maps into space adds sampleStride to its
// tile.
func refSampleSide(e coords.Extraction, space, input coords.Slab, fn func(coords.Coord) float64, splits []coords.Slab) []int64 {
	loads := make([]int64, space.Size())
	for _, split := range splits {
		live, ok := split.Intersect(input)
		if !ok {
			continue
		}
		live.EachReuse(func(c coords.Coord) bool {
			if (c[0]-live.Corner[0])%sampleStride != 0 || math.IsNaN(fn(c)) {
				return true
			}
			if kp, ok := mapKey(e, c, nil); ok && slabContains(space, kp) {
				k, _ := space.Linearize(kp)
				loads[k] += sampleStride
			}
			return true
		})
	}
	return loads
}

// TestSampleSideMatchesPerPoint holds the sampler to the per-point
// definition over random geometries: rank 1–3, off-grid input corners,
// stride gaps, partial tiles, runs of missing cells, and splits whose row
// counts are not multiples of sampleStride.
func TestSampleSideMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for checked := 0; checked < 300; {
		rank := 1 + rng.Intn(3)
		es, st := make([]string, rank), make([]string, rank)
		var sides [2]string
		for d := 0; d < rank; d++ {
			e := 1 + rng.Int63n(5)
			es[d] = fmt.Sprint(e)
			st[d] = fmt.Sprint(e + rng.Int63n(3))
		}
		for side := range sides {
			corner, shape := make([]string, rank), make([]string, rank)
			for d := 0; d < rank; d++ {
				corner[d] = fmt.Sprint(rng.Int63n(7))
				shape[d] = fmt.Sprint(1 + rng.Int63n(12))
				if d == 0 {
					shape[d] = fmt.Sprint(1 + rng.Int63n(90)) // many sampled rows
				}
			}
			sides[side] = fmt.Sprintf("[%s : %s] es {%s} stride {%s}",
				strings.Join(corner, ","), strings.Join(shape, ","), strings.Join(es, ","), strings.Join(st, ","))
		}
		q, err := query.Parse("join jsum a" + sides[0] + " with b" + sides[1])
		if err != nil {
			continue // an input sits in stride gaps, or the sides share no tile
		}
		checked++
		space, err := q.IntermediateSpace()
		if err != nil {
			t.Fatal(err)
		}
		// Missing cells come in runs along the innermost dimension.
		salt := rng.Int63n(5)
		fn := func(c coords.Coord) float64 {
			if (c[len(c)-1]/3+c[0]+salt)%4 == 0 {
				return nan()
			}
			return noisy(c)
		}
		splits, err := q.Input.SplitDim(0, 1+rng.Int63n(40))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, space.Size())
		if err := sampleSide(q, space, q.Input, funcReader{fn}, splits, got); err != nil {
			t.Fatal(err)
		}
		want := refSampleSide(q.Extraction, space, q.Input, fn, splits)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s over %d splits:\n sampled   %v\n per point %v", sides[0], len(splits), got, want)
		}
	}
}

// TestRetilePinned pins the layout of a small join_zipf-shaped plan — a
// dense side against a zipf-sparse one, jcorr, 8 reducers, re-tiling on:
// the units and their sampled loads are the planner's record, which
// workers rebuild from and the skew statistics summarize.
func TestRetilePinned(t *testing.T) {
	q := mustQuery(t, "join jcorr a[0,0 : 128,64] es {16,16} with b[0,0 : 128,64] es {16,16}")
	splits, err := q.Input.SplitDim(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, Options{Reducers: 8, MaxSkew: 16}, funcReader{datagen.Integers(11)}, funcReader{datagen.Zipf(12, 1.4)}, splits, splits)
	if err != nil {
		t.Fatal(err)
	}
	var units []string
	for _, u := range p.Units {
		if u.shared() {
			t.Fatalf("a sample-carrying join carved tile %v", u.Tile)
		}
		units = append(units, fmt.Sprintf("[%d,%d)", u.Lo, u.Hi))
	}
	got := fmt.Sprintf("%s loads %v", strings.Join(units, " "), p.EstLoads)
	const want = "[0,2) [2,4) [4,8) [8,11) [11,12) [12,16) [16,20) [20,24) [24,28) [28,30) [30,32)" +
		" loads [1024 1024 1120 1536 544 1024 1024 1024 1024 1040 1024]"
	if got != want {
		t.Fatalf("retile\n %s\nwant\n %s", got, want)
	}
}

type failingReader struct{ err error }

func (r failingReader) ReadSlabInto(coords.Slab, []float64) ([]float64, error) { return nil, r.err }

// TestBuildReportsEachSidesSamplingError: the sides are sampled at once,
// and a failing reader on either side fails the plan with that side's
// error — side A's when both fail.
func TestBuildReportsEachSidesSamplingError(t *testing.T) {
	q := mustQuery(t, "join jsum a[0,0 : 64,64] es {8,8} with b[0,0 : 64,64] es {8,8}")
	splits := bandSplits(t, q.Input, 16)
	errA, errB := errors.New("disk A"), errors.New("disk B")
	ok := funcReader{dense}
	for _, tc := range []struct {
		a, b coords.RecordReader
		want error
		msg  string
	}{
		{failingReader{errA}, ok, errA, "join: sampling side A: disk A"},
		{ok, failingReader{errB}, errB, "join: sampling side B: disk B"},
		{failingReader{errA}, failingReader{errB}, errA, "join: sampling side A: disk A"},
	} {
		_, err := Build(q, Options{Reducers: 4}, tc.a, tc.b, splits, splits)
		if !errors.Is(err, tc.want) || err.Error() != tc.msg {
			t.Errorf("Build: err %v, want %q", err, tc.msg)
		}
	}
	if _, err := Build(q, Options{Reducers: 4}, ok, ok, splits, splits); err != nil {
		t.Fatal(err)
	}
}
