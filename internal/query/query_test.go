package query

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"sidr/internal/coords"
)

func TestParseQuery1(t *testing.T) {
	// The paper's Query 1 (§4.1).
	q, err := Parse("median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}")
	if err != nil {
		t.Fatal(err)
	}
	if q.Operator != "median" || q.Variable != "windspeed" {
		t.Fatalf("parsed %+v", q)
	}
	if !slices.Equal(q.Input.Shape, coords.NewShape(7200, 360, 720, 50)) {
		t.Fatalf("input shape = %v", q.Input.Shape)
	}
	if !slices.Equal(q.Extraction.Shape, coords.NewShape(2, 36, 36, 10)) {
		t.Fatalf("es = %v", q.Extraction.Shape)
	}
	ks, err := q.IntermediateSpace()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ks.Shape, coords.NewShape(3600, 10, 20, 5)) {
		t.Fatalf("K' = %v", ks.Shape)
	}
}

func TestParseOptions(t *testing.T) {
	q, err := Parse("filter_gt temp[0,0 : 10,10] es {2,2} stride {3,3} param 4.5 keep-partial")
	if err != nil {
		t.Fatal(err)
	}
	if q.Param != 4.5 || !q.KeepPartial {
		t.Fatalf("parsed %+v", q)
	}
	if !slices.Equal(q.Extraction.Stride, coords.NewShape(3, 3)) {
		t.Fatalf("stride = %v", q.Extraction.Stride)
	}
}

func TestParseSpacesInsideBraces(t *testing.T) {
	q, err := Parse("avg t[0, 0 : 365, 250] es {7, 5}")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Input.Corner.Equal(coords.NewCoord(0, 0)) {
		t.Fatalf("corner = %v", q.Input.Corner)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"median",
		"median x[0:4]",                     // missing es
		"median x[0,0 : 4] es {2}",          // rank mismatch corner/shape
		"nosuchop x[0 : 4] es {2}",          // unknown operator
		"median x(0 : 4) es {2}",            // wrong brackets
		"median x[0 : 4] es",                // es without shape
		"median x[0 : 4] es {2} param",      // param without value
		"median x[0 : 4] es {2} param q",    // non-numeric param
		"median x[0 : 4] es {2} stride",     // stride without shape
		"median x[0 : 4] es {2} bogus",      // trailing junk
		"median x[0 : 4] es {2} stride {1}", // stride < shape
		"median x[0 : 0] es {2}",            // invalid input shape
		"median x[0 : 4] es {2",             // unbalanced braces
		"median x[-1 : 4] es {2}",           // negative corner
		"median x[0 4] es {2}",              // missing colon
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("accepted bad query %q", s)
		}
	}
}

func TestValidateAgainstVariableShape(t *testing.T) {
	q, err := Parse("avg t[0,0 : 365,250] es {7,5}")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(coords.NewShape(365, 250)); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(coords.NewShape(364, 250)); err == nil {
		t.Fatal("oversize input accepted")
	}
	if err := q.Validate(coords.NewShape(365, 250, 10)); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}",
		"filter_gt temp[0,0 : 10,10] es {2,2} stride {3,3} param 4.5 keep-partial",
		"avg t[5,6 : 10,20] es {2,4}",
		"filter_range temp[0,0 : 10,10] es {2,2} param 3.5,7.25",
		"filter_range temp[0,0 : 10,10] es {2,2} param -2,0",
	} {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Fatalf("round trip mismatch: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestTwoParamQueries(t *testing.T) {
	q, err := Parse("filter_range t[0,0 : 8,8] es {2,2} param 1,5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasParam2 || q.Param != 1 || q.Param2 != 5 {
		t.Fatalf("param clause parsed as %+v", q)
	}
	if got := q.Params(); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("Params() = %v", got)
	}
	// A zero second bound must round-trip (HasParam2 keeps it explicit).
	q2, err := Parse("filter_range t[0,0 : 8,8] es {2,2} param -3,0")
	if err != nil {
		t.Fatal(err)
	}
	if !q2.HasParam2 || q2.Param2 != 0 {
		t.Fatalf("zero upper bound lost: %+v", q2)
	}

	for _, bad := range []string{
		"filter_gt t[0,0 : 8,8] es {2,2} param 1,5",    // one-param op, two values
		"filter_range t[0,0 : 8,8] es {2,2} param 5",   // two-param op, one value
		"filter_range t[0,0 : 8,8] es {2,2} param 5,1", // empty range
		"filter_range t[0,0 : 8,8] es {2,2} param 1,2,3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
	single, err := Parse("filter_gt t[0,0 : 8,8] es {2,2} param 4")
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Params(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("single Params() = %v", got)
	}
}

func TestOpResolution(t *testing.T) {
	q, err := Parse("median x[0 : 4] es {2}")
	if err != nil {
		t.Fatal(err)
	}
	op, err := q.Op()
	if err != nil {
		t.Fatal(err)
	}
	if op.Name() != "median" {
		t.Fatalf("Op = %v", op.Name())
	}
}

func TestStringContainsParts(t *testing.T) {
	q, _ := Parse("avg t[1,2 : 3,4] es {1,2}")
	s := q.String()
	for _, part := range []string{"avg", "t[1,2 : 3,4]", "es {1,2}"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String %q missing %q", s, part)
		}
	}
}

// TestNaNParamRejected: a NaN in either param slot, however it is
// spelled, is errNaNParam; ±Inf parses and its canonical rendering
// round-trips.
func TestNaNParamRejected(t *testing.T) {
	for _, tc := range []struct {
		q   string
		nan bool
	}{
		{"percentile t[0,0 : 8,8] es {2,2} param NaN", true},
		{"percentile t[0,0 : 8,8] es {2,2} param nan", true},
		{"filter_gt t[0,0 : 8,8] es {2,2} param NAN", true},
		{"filter_range t[0,0 : 8,8] es {2,2} param 1,NaN", true},
		{"filter_range t[0,0 : 8,8] es {2,2} param nan,1", true},
		{"percentile t[0,0 : 8,8] es {2,2} param inf", false},
		{"percentile t[0,0 : 8,8] es {2,2} param -Inf", false},
		{"filter_gt t[0,0 : 8,8] es {2,2} param +Inf", false},
		{"filter_range t[0,0 : 8,8] es {2,2} param -inf,Inf", false},
	} {
		q, err := Parse(tc.q)
		if tc.nan {
			if !errors.Is(err, errNaNParam) {
				t.Fatalf("Parse(%q) = %v, want errNaNParam", tc.q, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.q, err)
		}
		if !math.IsInf(q.Param, 0) && !math.IsInf(q.Param2, 0) {
			t.Fatalf("Parse(%q): params %v, %v, want an infinity", tc.q, q.Param, q.Param2)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.String(), err)
		}
		if q2.String() != q.String() || q2.Param != q.Param || q2.Param2 != q.Param2 {
			t.Fatalf("%q: canonical %q re-parses as %q (%v, %v)", tc.q, q.String(), q2.String(), q2.Param, q2.Param2)
		}
	}
}
