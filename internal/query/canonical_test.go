package query

import "testing"

// canonical is the text a request's query is keyed under: the query
// parsed, then rendered.
func canonical(s string) (string, error) {
	q, err := Parse(s)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// TestCanonicalCollapsesSpellings pins the property the daemon's caches
// rely on: every trivially different spelling of one query canonicalises
// to the same string.
func TestCanonicalCollapsesSpellings(t *testing.T) {
	canon, err := canonical("avg temp[0,0,0 : 364,250,200] es {7,5,1}")
	if err != nil {
		t.Fatal(err)
	}
	variants := []string{
		"avg temp[0,0,0 : 364,250,200] es {7,5,1}",
		"avg  temp[0,0,0 : 364,250,200]  es  {7,5,1}",
		"avg temp[ 0, 0, 0 : 364, 250, 200 ] es { 7, 5, 1 }",
		"avg\ttemp[0,0,0:364,250,200]\tes\t{7,5,1}",
		"avg temp[0,0,0 :\n364,250,200] es {7,5,1}",
	}
	for _, v := range variants {
		got, err := canonical(v)
		if err != nil {
			t.Fatalf("canonical(%q): %v", v, err)
		}
		if got != canon {
			t.Fatalf("canonical(%q) = %q, want %q", v, got, canon)
		}
	}
}

// TestCanonicalNormalisesParams checks numeric param formatting: trailing
// zeros, explicit plus signs and exponent notation all render as one %g
// form, for one- and two-parameter operators.
func TestCanonicalNormalisesParams(t *testing.T) {
	cases := []struct{ a, b string }{
		{"filter_gt v[0,0 : 8,8] es {2,2} param 40.0",
			"filter_gt v[0,0 : 8,8] es {2,2} param 40"},
		{"filter_gt v[0,0 : 8,8] es {2,2} param +4e1",
			"filter_gt v[0,0 : 8,8] es {2,2} param 40"},
		{"filter_range v[0,0 : 8,8] es {2,2} param 10.0,20.00",
			"filter_range v[0,0 : 8,8] es {2,2} param 10,20"},
		{"filter_range v[0,0 : 8,8] es {2,2} param 0,2e1",
			"filter_range v[0,0 : 8,8] es {2,2} param 0,20"},
	}
	for _, c := range cases {
		ca, err := canonical(c.a)
		if err != nil {
			t.Fatalf("canonical(%q): %v", c.a, err)
		}
		cb, err := canonical(c.b)
		if err != nil {
			t.Fatalf("canonical(%q): %v", c.b, err)
		}
		if ca != cb {
			t.Fatalf("canonical(%q) = %q != canonical(%q) = %q", c.a, ca, c.b, cb)
		}
	}
}

// TestCanonicalFixedPoint: canonicalising a canonical string is the
// identity, and distinct queries stay distinct.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, s := range []string{
		"avg v[0,0 : 32,32] es {4,4}",
		"median w[0,0,0,0 : 144,36,36,10] es {2,36,36,10}",
		"filter_gt v[0,0 : 8,8] es {2,2} param 40",
		"filter_range v[0,0 : 8,8] es {2,2} param 10,20",
		"avg v[0,0 : 32,32] es {4,4} stride {8,8} keep-partial",
	} {
		c1, err := canonical(s)
		if err != nil {
			t.Fatalf("canonical(%q): %v", s, err)
		}
		c2, err := canonical(c1)
		if err != nil {
			t.Fatalf("canonical(%q): %v", c1, err)
		}
		if c1 != c2 {
			t.Fatalf("not a fixed point: %q -> %q -> %q", s, c1, c2)
		}
	}
	a, _ := canonical("avg v[0,0 : 32,32] es {4,4}")
	b, _ := canonical("avg v[0,0 : 32,32] es {8,8}")
	if a == b {
		t.Fatalf("distinct queries canonicalised to one string: %q", a)
	}
}

// TestCanonicalRejectsInvalid: canonicalisation is parsing, so invalid
// queries fail instead of being cached under a garbage key.
func TestCanonicalRejectsInvalid(t *testing.T) {
	for _, s := range []string{"", "avg", "avg v[0,0 : 8,8]", "nosuchop v[0 : 8] es {2}"} {
		if _, err := canonical(s); err == nil {
			t.Fatalf("canonical(%q) succeeded, want error", s)
		}
	}
}
