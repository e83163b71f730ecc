package sidr

import (
	"math"
	"math/rand"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/ops"
)

// refJoin computes the join the slow, obvious way: for every tile of the
// join keyspace, gather each side's aggregate by scanning the tile's
// overlap with that side's input in row-major order (skipping NaN
// missing cells), then combine. Generators emit small integers, so float
// sums are exact and order-independent — the engine must match this
// reference bit for bit.
func refJoin(t *testing.T, q *Query, fa, fb func(coords.Coord) float64) ([][]int64, [][]float64) {
	t.Helper()
	qq := q.q
	space, err := qq.IntermediateSpace()
	if err != nil {
		t.Fatalf("IntermediateSpace: %v", err)
	}
	op, err := qq.JoinOp()
	if err != nil {
		t.Fatalf("JoinOp: %v", err)
	}
	var keys [][]int64
	var values [][]float64
	var iterErr error
	space.Each(func(kp coords.Coord) bool {
		tile, err := qq.Extraction.Tile(kp)
		if err != nil {
			iterErr = err
			return false
		}
		gather := func(input coords.Slab, fn func(coords.Coord) float64) ops.SideAgg {
			var agg ops.SideAgg
			ov, ok := tile.Intersect(input)
			if !ok {
				return agg
			}
			ov.Each(func(c coords.Coord) bool {
				v := fn(c)
				if math.IsNaN(v) {
					return true
				}
				agg.Sum += v
				agg.Count++
				if op.NeedsSamples() {
					agg.Samples = append(agg.Samples, v)
				}
				return true
			})
			return agg
		}
		a := gather(qq.Input, fa)
		b := gather(qq.Input2, fb)
		if out, ok := op.Combine(a, b); ok {
			keys = append(keys, append([]int64(nil), kp...))
			values = append(values, out)
		}
		return true
	})
	if iterErr != nil {
		t.Fatalf("reference: %v", iterErr)
	}
	return keys, values
}

func requireSameRows(t *testing.T, label string, wantK, gotK [][]int64, wantV, gotV [][]float64) {
	t.Helper()
	if len(gotK) != len(wantK) {
		t.Fatalf("%s: %d rows, reference has %d", label, len(gotK), len(wantK))
	}
	for i := range wantK {
		for d := range wantK[i] {
			if gotK[i][d] != wantK[i][d] {
				t.Fatalf("%s: row %d key %v, reference %v", label, i, gotK[i], wantK[i])
			}
		}
		if len(gotV[i]) != len(wantV[i]) {
			t.Fatalf("%s: row %d has %d values, reference %d", label, i, len(gotV[i]), len(wantV[i]))
		}
		for j := range wantV[i] {
			if math.Float64bits(gotV[i][j]) != math.Float64bits(wantV[i][j]) {
				t.Fatalf("%s: row %d value %d = %v (bits %x), reference %v (bits %x)",
					label, i, j, gotV[i][j], math.Float64bits(gotV[i][j]),
					wantV[i][j], math.Float64bits(wantV[i][j]))
			}
		}
	}
}

// TestJoinMatchesReference is the seeded property test: random join
// queries over uniform and zipf-skewed integer-valued synthetic data,
// with re-tiling both enabled and disabled, must be byte-identical to
// the naive per-tile reference.
func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	opNames := []string{"jsum", "javg", "jcorr"}
	for trial := 0; trial < 24; trial++ {
		n0 := 24 + rng.Int63n(41) // leading extent in [24, 64]
		n1 := 16 + rng.Int63n(33)
		es := []int64{4, 8, 16}[rng.Intn(3)]
		op := opNames[trial%len(opNames)]
		// Side B's input sometimes covers a smaller prefix region, so the
		// join space is a strict intersection.
		m0, m1 := n0, n1
		if trial%4 == 3 {
			m0 = es + rng.Int63n(n0-es)
			m1 = es + rng.Int63n(n1-es)
		}
		qs := joinQueryText(op, n0, n1, m0, m1, es)
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, qs, err)
		}

		seedA, seedB := rng.Int63n(1000)+1, rng.Int63n(1000)+1
		fa := datagen.Integers(seedA)
		fb := datagen.Zipf(seedB, 1.0+rng.Float64())
		if trial%3 == 0 {
			fb = datagen.Integers(seedB) // uniform-vs-uniform round
		}
		dsA, err := Synthetic([]int64{n0, n1}, func(k []int64) float64 { return fa(coords.Coord(k)) })
		if err != nil {
			t.Fatal(err)
		}
		dsB, err := Synthetic([]int64{n0, n1}, func(k []int64) float64 { return fb(coords.Coord(k)) })
		if err != nil {
			t.Fatal(err)
		}

		wantK, wantV := refJoin(t, q, fa, fb)
		for _, noRetile := range []bool{false, true} {
			res, err := RunJoin(dsA, dsB, q, RunOptions{
				Engine:       SIDR,
				Reducers:     1 + rng.Intn(6),
				MaxSkew:      1 + rng.Int63n(64),
				NoJoinRetile: noRetile,
			})
			if err != nil {
				t.Fatalf("trial %d (%q, noRetile=%v): %v", trial, qs, noRetile, err)
			}
			label := qs
			if noRetile {
				label += " [no-retile]"
			}
			requireSameRows(t, label, wantK, res.Keys, wantV, res.Values)
		}
	}

	// Off-grid trials: both inputs start off the tile grid, so split bands
	// are not rounded to it and three-row splits cut every tile, whose
	// parts reach the Reduce from several streams. Their samples must be
	// concatenated in split order: jcorr zips the sides by position, and
	// the zipf side's missing cells make the order show.
	for trial := 0; trial < 6; trial++ {
		es := []int64{4, 8, 16}[rng.Intn(3)]
		c0 := 1 + rng.Int63n(es-1)
		n0, n1 := 24+rng.Int63n(41), 16+rng.Int63n(33)
		op := opNames[trial%len(opNames)]
		side := "[" + itoa(c0) + ",0 : " + itoa(n0) + "," + itoa(n1) + "] es {" + itoa(es) + "," + itoa(es) + "}"
		qs := "join " + op + " a" + side + " with b" + side
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatalf("off-grid trial %d: parse %q: %v", trial, qs, err)
		}
		fa, fb := datagen.Integers(rng.Int63n(1000)+1), datagen.Zipf(rng.Int63n(1000)+1, 1.0+rng.Float64())
		dsA, err := Synthetic([]int64{c0 + n0, n1}, func(k []int64) float64 { return fa(coords.Coord(k)) })
		if err != nil {
			t.Fatal(err)
		}
		dsB, err := Synthetic([]int64{c0 + n0, n1}, func(k []int64) float64 { return fb(coords.Coord(k)) })
		if err != nil {
			t.Fatal(err)
		}
		wantK, wantV := refJoin(t, q, fa, fb)
		res, err := RunJoin(dsA, dsB, q, RunOptions{Engine: SIDR, Reducers: 1 + rng.Intn(6), SplitPoints: 3 * n1})
		if err != nil {
			t.Fatalf("off-grid trial %d (%q): %v", trial, qs, err)
		}
		requireSameRows(t, qs+" [three-row splits]", wantK, res.Keys, wantV, res.Values)
	}
}

func joinQueryText(op string, n0, n1, m0, m1, es int64) string {
	return "join " + op +
		" a[0,0 : " + itoa(n0) + "," + itoa(n1) + "] es {" + itoa(es) + "," + itoa(es) + "}" +
		" with b[0,0 : " + itoa(m0) + "," + itoa(m1) + "] es {" + itoa(es) + "," + itoa(es) + "}"
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
