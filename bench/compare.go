package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the bench itself reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareDocs holds document B against baseline A: one row per
// (workload, end-to-end metric) with both medians, how much worse B is
// as a share of A, and the bound from BENCHMARK.json. A row whose own
// run-to-run spread (interquartile distance over the median, on either
// side) exceeds the bound is "unresolved", not "ok": the sets cannot tell
// a change of that size from noise. ok is false on any breach, and on
// any failed query in B.
func compareDocs(w io.Writer, pathA, pathB, boundsPath string) (bool, error) {
	var a, b document
	var bj benchmarkJSON
	for path, v := range map[string]any{pathA: &a, pathB: &b, boundsPath: &bj} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	for _, d := range []document{a, b} {
		if d.Schema != schema {
			return false, fmt.Errorf("not a %s document (schema %q)", schema, d.Schema)
		}
	}
	if a.Env["scale"] != b.Env["scale"] || a.Env["seconds"] != b.Env["seconds"] {
		return false, fmt.Errorf("sets differ in scale or seconds (%v/%v vs %v/%v) and cannot be compared",
			a.Env["scale"], a.Env["seconds"], b.Env["scale"], b.Env["seconds"])
	}
	ok := true
	var breaches, unresolved int
	fmt.Fprintf(w, "%-15s %-15s %13s %13s %8s %6s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spread", "")
	for _, wl := range bj.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a set", wl.Name)
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "%-15s %d of %d queries failed in B: BREACH (failed_ratio may not rise above 0)\n", wl.Name, wb.Failed, wb.Attempted)
			ok = false
			breaches++
		}
		for _, d := range bj.EndToEnd {
			sa, sb := wa.E2E[d.Name], wb.E2E[d.Name]
			if sa == nil || sb == nil || d.Bound == nil {
				return false, fmt.Errorf("%s/%s is missing from a set or has no bound", wl.Name, d.Name)
			}
			ma, mb := median(sa.Values), median(sb.Values)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sp := max(spread(sa.Values), spread(sb.Values))
			status := "ok"
			switch {
			case worse > *d.Bound:
				status = "BREACH"
				ok = false
				breaches++
			case sp > *d.Bound:
				status = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-15s %13.6g %13.6g %+7.1f%% %5.0f%% %7.1f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100**d.Bound, 100*sp, status)
		}
	}
	fmt.Fprintf(w, "%d breach(es), %d unresolved; %d and %d run(s) per workload\n", breaches, unresolved, runsIn(a), runsIn(b))
	return ok, nil
}

// runsIn is the number of runs behind each of a document's series.
func runsIn(d document) int {
	for _, w := range d.Workloads {
		for _, s := range w.E2E {
			return len(s.Values)
		}
	}
	return 0
}
