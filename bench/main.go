// Command bench is the repository's one benchmark: five named workloads,
// the paper's headline end-to-end metrics (total query time, time to
// first correct result) and a per-layer breakdown measured from outside
// each layer. See README.md in this directory.
//
//	go run ./bench                                  every workload, one JSON document
//	go run ./bench -workload scan_avg -trace 1      one workload, per-layer metrics
//	go run ./bench -compare A.json B.json           hold set B against set A
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} — the form BENCHMARK.json's
// driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workRoot holds datasets, spills and indexes while a run lasts; it is
// relative so everything stays inside the directory the bench runs from.
const workRoot = ".bench_work"

const schema = "sidr-bench/1"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in its own child process)")
		seed     = flag.Int64("seed", 1, "seeds every generated dataset and the serve_mix request schedule")
		seconds  = flag.Float64("seconds", 15, "length of each run's timed window")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file (all workloads: used as a prefix)")
		scale    = flag.String("scale", "full", "full, or tiny (shrunken extents, for tests only; never comparable with full)")
		runs     = flag.Int("runs", 1, "all workloads: untraced runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "all workloads: write the JSON document here instead of standard output")
		compare  = flag.Bool("compare", false, "compare two documents: -compare A.json B.json")
		bounds   = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the regression bounds")
	)
	flag.Parse()
	if *scale != "full" && *scale != "tiny" {
		fatal(fmt.Errorf("-scale must be full or tiny, got %q", *scale))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two documents, got %d", flag.NArg()))
		}
		ok, err := compareDocs(os.Stdout, flag.Arg(0), flag.Arg(1), *bounds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *scale == "tiny", traceOut: *traceOut}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *workload, err))
		}
		printRun(cfg, res)
		if res.Failed > 0 {
			os.Exit(1)
		}
	default:
		ok, err := runAll(*seed, *seconds, *scale, *runs, *out, *traceOut)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printRun prints one run: every metric by name with its unit, the
// sample counts, a "detail" line for runAll, and last the result line.
// The result line carries every declared metric of the run's kind; a
// per-layer metric the workload does not exercise reads 0 there (and is
// absent from the document runAll writes).
func printRun(cfg runConfig, res *outcome) {
	defs, vals := e2eMetrics, res.E2E
	if cfg.trace {
		defs, vals = layerMetrics, res.Layers
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d scale %s trace %v: %d queries attempted, %d failed (failed_ratio %g)\n",
		cfg.workload, cfg.seed, scaleName(cfg.tiny), cfg.trace, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range defs {
		v, ok := vals[d.Name]
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		if ok {
			fmt.Printf("  %-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, name := range sortedKeys(res.Samples) {
		fmt.Printf("  samples %-22s %v\n", name, res.Samples[name])
	}
	detail, _ := json.Marshal(res)
	fmt.Printf("detail %s\n", detail)
	b, _ := json.Marshal(line)
	fmt.Printf("%s\n", b)
}

func scaleName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// series is one end-to-end metric over a set's untraced runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// docWorkload is one workload in the output document. Metrics a workload
// does not measure are absent keys, never zeros.
type docWorkload struct {
	Params      map[string]any         `json:"params"`
	Samples     map[string]any         `json:"samples"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	E2E         map[string]*series     `json:"e2e"`
	Layers      map[string]metricValue `json:"layers"`
	Spans       map[string]spanStat    `json:"spans,omitempty"`
}

// document is the frozen output schema.
type document struct {
	Schema    string                  `json:"schema"`
	Env       map[string]any          `json:"env"`
	Workloads map[string]*docWorkload `json:"workloads"`
}

func environment(seed int64, seconds float64, scale string, runs int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": seed, "seconds": seconds, "scale": scale, "runs": runs,
	}
}

// child runs one workload in a fresh process — so set-up time and peak
// RSS are that workload's alone — and returns its detail record.
func child(workload string, seed int64, seconds float64, scale string, trace int, traceOut string) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", scale, "-trace", fmt.Sprint(trace)}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var res *outcome
	for _, l := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(l, "detail "); ok {
			res = new(outcome)
			if jerr := json.Unmarshal([]byte(rest), res); jerr != nil {
				return nil, jerr
			}
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s (trace %d): no result: %v", workload, trace, err)
	}
	return res, nil // a non-zero exit with a result means failed queries; the caller counts them
}

// runAll runs every workload — runs untraced children, then one traced —
// and writes the document. ok is false when any query failed.
func runAll(seed int64, seconds float64, scale string, runs int, outPath, tracePrefix string) (bool, error) {
	doc := document{Schema: schema, Env: environment(seed, seconds, scale, runs), Workloads: map[string]*docWorkload{}}
	ok := true
	for _, w := range workloads {
		dw := &docWorkload{E2E: map[string]*series{}, Layers: map[string]metricValue{}}
		doc.Workloads[w.Name] = dw
		for r := 0; r < runs; r++ {
			res, err := child(w.Name, seed+int64(r), seconds, scale, 0, "")
			if err != nil {
				return false, err
			}
			dw.Params, dw.Samples = res.Params, res.Samples
			dw.Attempted += res.Attempted
			dw.Failed += res.Failed
			for _, d := range e2eMetrics {
				s := dw.E2E[d.Name]
				if s == nil {
					s = &series{Unit: d.Unit}
					dw.E2E[d.Name] = s
				}
				s.Values = append(s.Values, res.E2E[d.Name])
			}
		}
		traceOut := ""
		if tracePrefix != "" {
			traceOut = tracePrefix + "-" + w.Name + ".json"
		}
		res, err := child(w.Name, seed, seconds, scale, 1, traceOut)
		if err != nil {
			return false, err
		}
		dw.Attempted += res.Attempted
		dw.Failed += res.Failed
		dw.Spans = res.Spans
		for _, d := range layerMetrics {
			if v, measured := res.Layers[d.Name]; measured {
				dw.Layers[d.Name] = metricValue{v, d.Unit}
			}
		}
		dw.FailedRatio = float64(dw.Failed) / float64(max(dw.Attempted, 1))
		ok = ok && dw.Failed == 0
		fmt.Fprintf(os.Stderr, "%s: %d queries, %d failed\n", w.Name, dw.Attempted, dw.Failed)
		for _, d := range e2eMetrics {
			s := dw.E2E[d.Name]
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			fmt.Fprintf(os.Stderr, "  %-16s median %12.6g %-9s (n=%d, q1 %.6g, q3 %.6g)\n", d.Name, s.Median, d.Unit, len(s.Values), s.Q1, s.Q3)
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	b = append(b, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(b)
		return ok, err
	}
	return ok, os.WriteFile(outPath, b, 0o644)
}
