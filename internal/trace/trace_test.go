package trace

import (
	"math"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	tr := &Trace{}
	tr.Add(Map, 0, 10)
	tr.Add(Map, 1, 20)
	tr.Add(Reduce, 0, 25)
	tr.Add(Map, 2, 30)
	tr.Add(Reduce, 1, 50)
	return tr
}

func TestTimesSorted(t *testing.T) {
	tr := &Trace{}
	tr.Add(Map, 0, 30)
	tr.Add(Map, 1, 10)
	tr.Add(Map, 2, 20)
	ts := tr.SeriesOf(Map).Times
	if ts[0] != 10 || ts[1] != 20 || ts[2] != 30 {
		t.Fatalf("Map times = %v", ts)
	}
}

func TestFirstResultAndMakespan(t *testing.T) {
	tr := sampleTrace()
	if first := tr.SeriesOf(Reduce).Times[0]; first != 25 {
		t.Fatalf("first result = %v", first)
	}
	if tr.Makespan() != 50 {
		t.Fatalf("Makespan = %v", tr.Makespan())
	}
	empty := &Trace{}
	if !math.IsNaN(empty.Makespan()) || len(empty.SeriesOf(Reduce).Times) != 0 {
		t.Fatal("empty trace should have no makespan and no results")
	}
}

func TestSeries(t *testing.T) {
	tr := sampleTrace()
	s := tr.SeriesOf(Map)
	if len(s.Times) != 3 {
		t.Fatalf("series = %+v", s)
	}
	if s.Fractions[0] != 1.0/3 || s.Fractions[2] != 1 {
		t.Fatalf("fractions = %v", s.Fractions)
	}
	if got := s.FractionAt(5); got != 0 {
		t.Fatalf("FractionAt(5) = %v", got)
	}
	if got := s.FractionAt(20); got != 2.0/3 {
		t.Fatalf("FractionAt(20) = %v", got)
	}
	if got := s.FractionAt(1000); got != 1 {
		t.Fatalf("FractionAt(1000) = %v", got)
	}
	if got := s.TimeAtFraction(1); got != 30 {
		t.Fatalf("TimeAtFraction(1) = %v", got)
	}
	if got := s.TimeAtFraction(0.01); got != 10 {
		t.Fatalf("TimeAtFraction(0.01) = %v", got)
	}
	if !math.IsNaN((Series{}).TimeAtFraction(0.5)) {
		t.Fatal("empty TimeAtFraction not NaN")
	}
	if (Series{}).FractionAt(10) != 0 {
		t.Fatal("empty FractionAt != 0")
	}
}

func TestRender(t *testing.T) {
	s := sampleTrace().SeriesOf(Reduce)
	out := s.Render("reduce completion")
	if !strings.HasPrefix(out, "# reduce completion\n") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "25.0\t0.5000") {
		t.Fatalf("render = %q", out)
	}
}

func TestVarianceAcross(t *testing.T) {
	runs := []Series{
		{Times: []float64{10, 20}},
		{Times: []float64{14, 20}},
	}
	vs, err := VarianceAcross(runs)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Mean[0] != 12 || vs.Mean[1] != 20 {
		t.Fatalf("Mean = %v", vs.Mean)
	}
	if vs.StdDev[0] != 2 || vs.StdDev[1] != 0 {
		t.Fatalf("StdDev = %v", vs.StdDev)
	}
	if vs.MaxStdDev() != 2 {
		t.Fatalf("MaxStdDev = %v", vs.MaxStdDev())
	}
	if vs.MeanStdDev() != 1 {
		t.Fatalf("MeanStdDev = %v", vs.MeanStdDev())
	}
	if _, err := VarianceAcross(nil); err == nil {
		t.Fatal("empty runs accepted")
	}
	if _, err := VarianceAcross([]Series{{Times: []float64{1}}, {Times: []float64{1, 2}}}); err == nil {
		t.Fatal("ragged runs accepted")
	}
	if (varianceStats{}).MeanStdDev() != 0 {
		t.Fatal("empty MeanStdDev != 0")
	}
}
