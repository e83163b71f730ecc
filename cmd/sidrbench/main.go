// Command sidrbench regenerates every table and figure in the paper's
// evaluation (§4) plus the §6 failure study, from internal/experiments.
// Each experiment prints the same rows/series the paper reports; -exp
// selects one, -curves dumps full completion curves for plotting.
// Performance of the running system is measured by bench/ (see
// BENCHMARK.json), not here.
//
// Usage:
//
//	sidrbench [-exp all|fig9|fig10|fig11|fig12|fig13|table2|table3|partmicro|failures]
//	          [-seed N] [-runs N] [-curves] [-dir DIR] [-micropairs N]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"sidr/internal/experiments"
	"sidr/internal/trace"
)

// experimentNames is what -exp accepts.
var experimentNames = []string{"all", "fig9", "fig10", "fig11", "fig12", "fig13", "table2", "table3", "partmicro", "failures"}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run ("+strings.Join(experimentNames, ", ")+")")
		seed   = flag.Int64("seed", 1, "simulation seed")
		runs   = flag.Int("runs", 10, "repetitions for averaged experiments (fig12, table2, partmicro)")
		curves = flag.Bool("curves", false, "dump full completion curves, not just summaries")
		dir    = flag.String("dir", os.TempDir(), "scratch directory for file-IO experiments")
		micro  = flag.Int("micropairs", experiments.PartitionMicroPairs, "pair count for the partition micro-benchmark")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: sidrbench [flags]")
		fmt.Fprintln(flag.CommandLine.Output(), "cluster experiments run on the simulator; in-process engine runs")
		fmt.Fprintln(flag.CommandLine.Output(), "(see sidrquery, sidrd) default Map/Reduce workers to GOMAXPROCS")
		flag.PrintDefaults()
	}
	flag.Parse()
	if !slices.Contains(experimentNames, *exp) {
		fmt.Fprintf(os.Stderr, "sidrbench: unknown experiment %q; -exp takes one of: %s\n", *exp, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "sidrbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	cfg := experiments.TestbedConfig(*seed)

	printCurves := func(results []experiments.CurveResult) {
		for _, cr := range results {
			fmt.Println("  " + cr.Format())
		}
		if *curves {
			for _, cr := range results {
				fmt.Print(cr.Result.Trace.SeriesOf(trace.Map).Render(cr.Label + " [maps]"))
				fmt.Print(cr.Result.Trace.SeriesOf(trace.Reduce).Render(cr.Label + " [reduces]"))
			}
		}
	}

	run("fig9", func() error {
		fmt.Println("Figure 9: Query 1 task completion, Hadoop vs SciHadoop vs SIDR (22 reduces)")
		rs, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		printCurves(rs)
		return nil
	})
	run("fig10", func() error {
		fmt.Println("Figure 10: Query 1, SIDR reduce-count sweep vs SciHadoop")
		rs, err := experiments.Figure10(cfg)
		if err != nil {
			return err
		}
		printCurves(rs)
		return nil
	})
	run("fig11", func() error {
		fmt.Println("Figure 11: Query 2 filter, SIDR reduce-count sweep vs SciHadoop")
		rs, err := experiments.Figure11(cfg)
		if err != nil {
			return err
		}
		printCurves(rs)
		return nil
	})
	run("fig12", func() error {
		fmt.Printf("Figure 12: SIDR completion-time variance over %d runs\n", *runs)
		rows, err := experiments.Figure12(cfg, *runs)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println("  " + r.Format())
		}
		return nil
	})
	run("fig13", func() error {
		fmt.Println("Figure 13: intermediate key skew, stock modulo vs SIDR (22 reduces)")
		rs, err := experiments.Figure13(cfg)
		if err != nil {
			return err
		}
		printCurves(rs)
		if len(rs) == 2 {
			speedup := (rs[0].Makespan - rs[1].Makespan) / rs[0].Makespan * 100
			fmt.Printf("  SIDR completes %.0f%% faster than stock\n", speedup)
		}
		stock, sidr, err := experiments.Figure13Skew()
		if err != nil {
			return err
		}
		fmt.Printf("  load imbalance, stock:      %s\n", stock.Format())
		fmt.Printf("  load imbalance, partition+: %s\n", sidr.Format())
		return nil
	})
	run("table2", func() error {
		fmt.Println("Table 2: per-reduce output write time and size scaling (real file IO)")
		t2 := experiments.DefaultTable2Config(*dir)
		t2.Runs = *runs
		rows, err := experiments.Table2(t2)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println("  " + r.Format())
		}
		return nil
	})
	run("table3", func() error {
		fmt.Println("Table 3: Map/Reduce shuffle connection scaling")
		rows, err := experiments.Table3()
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println("  " + r.Format())
		}
		return nil
	})
	run("failures", func() error {
		fmt.Println("§6 failure-recovery study: persist-and-refetch vs no-persist-and-recompute (Query 1, SIDR)")
		for _, reducers := range []int{22, 176} {
			rows, err := experiments.FailureStudy(cfg, reducers, []float64{0, 0.02, 0.05, 0.1, 0.2})
			if err != nil {
				return err
			}
			fmt.Printf("  %d reducers:\n", reducers)
			for _, r := range rows {
				fmt.Println("    " + r.Format())
			}
		}
		return nil
	})
	run("partmicro", func() error {
		fmt.Println("§4.5: partition function micro-benchmark")
		res, err := experiments.PartitionMicro(*micro, *runs, 22)
		if err != nil {
			return err
		}
		fmt.Println("  " + res.Format())
		return nil
	})
}
