package query

import (
	"testing"
)

// FuzzParseJoin throws arbitrary text at the two-input join grammar.
// Parse must never panic, and any input it accepts must round-trip
// through the canonical rendering: Parse(q.String()) succeeds and
// renders identically (String is a fixed point), with the structural
// join fields surviving the trip.
func FuzzParseJoin(f *testing.F) {
	f.Add("join jsum a[0,0 : 512,512] es {16,16} with b[0,0 : 512,512] es {16,16}")
	f.Add("join javg a[0,0 : 64,64] es {8,8} with b[0,0 : 48,48] es {8,8}")
	f.Add("join jcorr x[0,0,0 : 10,10,10] es {2,2,2} with y[0,0,0 : 10,10,10] es {2,2,2}")
	f.Add("join jsum a[0 : 8] es {2} with b[0 : 8] es {2}")
	f.Add("join with with with")
	f.Add("join jsum a[0,0 : 4,4] es {2,2}")
	f.Add("avg temp[0,0 : 32,32] es {4,4}")
	f.Add("join jsum a[0,0 : 4,4] es {2,2} with b[9,9 : 4,4] es {2,2}")

	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return // rejected input; only acceptance has invariants
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", canon, s, err)
		}
		if got := q2.String(); got != canon {
			t.Fatalf("String is not a fixed point: %q -> %q", canon, got)
		}
		if q2.Join != q.Join {
			t.Fatalf("join flag flipped across round-trip of %q", s)
		}
		if q.Join {
			if q2.Variable2 != q.Variable2 {
				t.Fatalf("side-B variable %q became %q across round-trip", q.Variable2, q2.Variable2)
			}
			if q2.Input2.String() != q.Input2.String() {
				t.Fatalf("side-B input %v became %v across round-trip", q.Input2, q2.Input2)
			}
			if _, err := q2.JoinOp(); err != nil {
				t.Fatalf("accepted join %q has no operator: %v", s, err)
			}
		}
	})
}
