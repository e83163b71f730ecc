package ncfile

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestAttributesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attrs.ncf")
	h := &Header{
		Dims: []Dimension{{Name: "time", Length: 4}, {Name: "lat", Length: 3}},
		Vars: []Variable{{
			Name: "temperature",
			Type: Float64,
			Dims: []string{"time", "lat"},
			Attrs: []Attribute{
				{Name: "units", Value: "degC"},
				{Name: "long_name", Value: "surface air temperature"},
			},
		}},
		Attrs: []Attribute{
			{Name: "institution", Value: "UCSC Systems Research Lab"},
			{Name: "grid", Value: "25N-50N 1/10 deg"},
		},
	}
	f, err := create(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := g.Header()
	if v, ok := got.Attr("institution"); !ok || v != "UCSC Systems Research Lab" {
		t.Fatalf("global attr = %q, %v", v, ok)
	}
	if _, ok := got.Attr("missing"); ok {
		t.Fatal("phantom global attr")
	}
	tv, err := got.variable("temperature")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := tv.Attr("units"); !ok || u != "degC" {
		t.Fatalf("var attr = %q, %v", u, ok)
	}
	if _, ok := tv.Attr("nope"); ok {
		t.Fatal("phantom var attr")
	}
	// Data offsets must account for the attribute bytes: the payload
	// must read back intact.
	vals, err := readAll(g, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 12 {
		t.Fatalf("%d values", len(vals))
	}
}

func TestDescribeFigure1Style(t *testing.T) {
	// The paper's Figure 1 metadata rendered from a header.
	h := &Header{
		Dims: []Dimension{
			{Name: "time", Length: 365},
			{Name: "lat", Length: 250},
			{Name: "lon", Length: 200},
		},
		Vars: []Variable{{
			Name:   "temperature",
			Type:   int64Type,
			Dims:   []string{"time", "lat", "lon"},
			Origin: []int64{0, 0, 0},
			Attrs:  []Attribute{{Name: "units", Value: "degC"}},
		}},
		Attrs: []Attribute{{Name: "source", Value: "figure 1"}},
	}
	out := h.Describe()
	for _, want := range []string{
		"dimensions:",
		"time = 365;",
		"lat = 250;",
		"variables:",
		"int64 temperature(time, lat, lon);",
		`temperature:units = "degC";`,
		"temperature:origin = [0 0 0];",
		`:source = "figure 1";`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestAttributesAffectHeaderSize(t *testing.T) {
	plain := &Header{
		Dims: []Dimension{{Name: "x", Length: 2}},
		Vars: []Variable{{Name: "v", Type: Float64, Dims: []string{"x"}}},
	}
	attributed := &Header{
		Dims:  plain.Dims,
		Vars:  []Variable{{Name: "v", Type: Float64, Dims: []string{"x"}, Attrs: []Attribute{{Name: "a", Value: "bb"}}}},
		Attrs: []Attribute{{Name: "g", Value: "vv"}},
	}
	p, err := plain.totalSize()
	if err != nil {
		t.Fatal(err)
	}
	a, err := attributed.totalSize()
	if err != nil {
		t.Fatal(err)
	}
	// Two attributes: (2+1 + 2+2) + (2+1 + 2+2) = 14 bytes of entries.
	if a-p != 14 {
		t.Fatalf("attribute bytes = %d, want 14", a-p)
	}
}
