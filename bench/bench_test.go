package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadDeclared(t *testing.T) benchmarkJSON {
	t.Helper()
	var bj benchmarkJSON
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclaredMatchesProgram holds BENCHMARK.json and the program's own
// tables equal: workloads, metric names, units, directions and bounds.
func TestDeclaredMatchesProgram(t *testing.T) {
	bj := loadDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q (%q), program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	check := func(kind string, declared []declared, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: declared %d metrics, program has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s %d: declared %+v, program %+v", kind, i, got, d)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: metric name %q outside the allowed character set", kind, d.Name)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound declared %v, program %v", kind, d.Name, got.Bound, d.Bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics, true)
	check("per_layer", bj.PerLayer, layerMetrics, false)
	if bj.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must be declared")
	}
}

// TestWorkloadsTiny runs every workload at -scale tiny, untraced and
// traced: no query may fail, an untraced run emits exactly the declared
// end-to-end metrics (all non-zero), a traced run emits only declared
// per-layer metrics, every declared per-layer metric is measured by some
// workload, and every trace file has a well-formed parent chain.
func TestWorkloadsTiny(t *testing.T) {
	measured := make(map[string]bool)
	for _, w := range workloads {
		cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.15, tiny: true}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s untraced: %d attempted, %d failed", w.Name, res.Attempted, res.Failed)
		}
		if len(res.E2E) != len(e2eMetrics) {
			t.Errorf("%s: emitted %d end-to-end metrics, declared %d", w.Name, len(res.E2E), len(e2eMetrics))
		}
		for _, d := range e2eMetrics {
			if v, ok := res.E2E[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); must be emitted and non-zero", w.Name, d.Name, v, ok)
			}
		}

		cfg.trace, cfg.traceOut = true, filepath.Join(t.TempDir(), "spans.json")
		res, err = runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s traced: %d attempted, %d failed", w.Name, res.Attempted, res.Failed)
		}
		declared := make(map[string]bool)
		for _, d := range layerMetrics {
			declared[d.Name] = true
		}
		for name, v := range res.Layers {
			if !declared[name] {
				t.Errorf("%s: undeclared per-layer metric %s", w.Name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, name, v)
			}
			measured[name] = true
		}
		if _, ok := res.Layers["trace.overhead_ratio"]; !ok {
			t.Errorf("%s: no trace.overhead_ratio", w.Name)
		}
		checkParentChain(t, w.Name, cfg.traceOut)
	}
	for _, d := range layerMetrics {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
	if _, err := os.Stat(workRoot); err == nil {
		t.Errorf("work directory %s left behind", workRoot)
	}
}

func checkParentChain(t *testing.T, workload, path string) {
	t.Helper()
	var spans []span
	if err := readJSON(path, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: empty trace file", workload)
	}
	byID := make(map[int64]span)
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Errorf("%s: span id %d duplicated or zero", workload, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start || s.Name == "" {
			t.Errorf("%s: malformed span %+v", workload, s)
		}
		// Walk to the root: every parent exists, belongs to the same query
		// and the chain ends (no cycles) at a parentless span.
		for cur, hops := s, 0; cur.Parent != 0; hops++ {
			p, ok := byID[cur.Parent]
			if !ok || p.Query != s.Query || hops > len(spans) {
				t.Errorf("%s: span %d (%s, query %d) has a broken parent chain at %d", workload, s.ID, s.Name, s.Query, cur.Parent)
				break
			}
			cur = p
		}
	}
}

// TestGateFires corrupts one bit of every second timed result: exactly
// those queries must count as failed.
func TestGateFires(t *testing.T) {
	calls := 0
	perturb = func(values [][]float64) [][]float64 {
		calls++
		if calls <= 2 || calls%2 == 0 { // the two warm-up queries stay intact
			return values
		}
		out := make([][]float64, len(values))
		copy(out, values)
		for i, v := range out {
			if len(v) > 0 {
				out[i] = append([]float64(nil), v...)
				out[i][0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1)
				break
			}
		}
		return out
	}
	defer func() { perturb = nil }()
	res, err := runWorkload(runConfig{workload: "scan_avg", seed: 1, seconds: 0.05, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := (res.Attempted + 1) / 2; res.Attempted < 2 || res.Failed != want {
		t.Errorf("perturbed run: %d of %d queries failed; the gate must fail every second one (%d)", res.Failed, res.Attempted, want)
	}
}

func TestHashRowsIsBitExact(t *testing.T) {
	keys := [][]int64{{0, 1}, {0, 2}}
	base := hashRows(keys, [][]float64{{1.5}, {0}})
	for name, h := range map[string]uint64{
		"last mantissa bit": hashRows(keys, [][]float64{{math.Float64frombits(math.Float64bits(1.5) ^ 1)}, {0}}),
		"negative zero":     hashRows(keys, [][]float64{{1.5}, {math.Copysign(0, -1)}}),
		"a key":             hashRows([][]int64{{0, 1}, {0, 3}}, [][]float64{{1.5}, {0}}),
		"value moved":       hashRows(keys, [][]float64{{1.5, 0}, {}}),
	} {
		if h == base {
			t.Errorf("hash unchanged after changing %s", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-value quartiles %v %v", q1, q3)
	}
}

// TestClassedMedian: one class is the plain median; several classes give
// the mean of their medians however many samples each holds.
func TestClassedMedian(t *testing.T) {
	var c classed
	for _, x := range []float64{3, 1, 2} {
		c.add(0, x)
	}
	if got := c.median(); got != 2 {
		t.Errorf("one class: median %v, want 2", got)
	}
	for _, x := range []float64{30, 10, 20, 20, 20} {
		c.add(1, x)
	}
	if got := c.median(); got != 11 || len(c.all()) != 8 {
		t.Errorf("two classes: median %v over %d samples, want 11 over 8", got, len(c.all()))
	}
}

func TestCompare(t *testing.T) {
	bj := loadDeclared(t)
	mkdoc := func(factor map[string]float64, jitter float64) document {
		d := document{Schema: schema, Env: map[string]any{"scale": "full", "seconds": 10.0}, Workloads: map[string]*docWorkload{}}
		for _, w := range bj.Workloads {
			dw := &docWorkload{Attempted: 10, E2E: map[string]*series{}}
			for _, m := range bj.EndToEnd {
				f := 1.0
				if v, ok := factor[w.Name+"/"+m.Name]; ok {
					f = v
				}
				dw.E2E[m.Name] = &series{Unit: m.Unit, Values: []float64{100 * f * (1 - jitter), 100 * f, 100 * f, 100 * f * (1 + jitter)}}
			}
			d.Workloads[w.Name] = dw
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		b, _ := json.Marshal(d)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mkdoc(nil, 0.001))
	for _, c := range []struct {
		name   string
		doc    document
		ok     bool
		expect string
	}{
		{"same", mkdoc(nil, 0.001), true, "0 breach(es), 0 unresolved"},
		{"slower", mkdoc(map[string]float64{"scan_avg/query_total_s": 1.5}, 0.001), false, "BREACH"},
		{"lower throughput", mkdoc(map[string]float64{"serve_mix/req_per_s": 0.5}, 0.001), false, "BREACH"},
		{"faster", mkdoc(map[string]float64{"scan_avg/query_total_s": 0.5, "serve_mix/req_per_s": 2}, 0.001), true, "0 breach(es), 0 unresolved"},
		{"noisy", mkdoc(nil, 0.9), true, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareDocs(&out, base, write("b.json", c.doc), filepath.Join("..", "BENCHMARK.json"))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
	}
}
