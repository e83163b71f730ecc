// Command sidrbench regenerates every table and figure in the paper's
// evaluation (§4). Each experiment prints the same rows/series the paper
// reports; -exp selects one, -curves dumps full completion curves for
// plotting.
//
// -json FILE instead writes a machine-readable benchmark summary
// (BENCH_PR*.json): first-result and total times for the Figure 9/10
// cluster runs, wall-clock of a real in-process engine query, the
// partition+ micro-benchmark's allocation profile, and the chaos
// experiment's fault-recovery latencies — one snapshot per PR so the
// perf trajectory is tracked across the repo's history.
//
// Usage:
//
//	sidrbench [-exp all|fig9|fig10|fig11|fig12|fig13|table2|table3|partmicro|failures|chaos|churn|prune|serve|join]
//	          [-seed N] [-runs N] [-curves] [-dir DIR]
//	sidrbench -json BENCH.json
//	sidrbench -exp join -joinscale 0.5 -json BENCH_PR9.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sidr"
	"sidr/internal/experiments"
	"sidr/internal/trace"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (all, fig9, fig10, fig11, fig12, fig13, table2, table3, partmicro, failures, chaos, churn, prune, serve, join)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		runs    = flag.Int("runs", 10, "repetitions for averaged experiments (fig12, table2, partmicro)")
		curves  = flag.Bool("curves", false, "dump full completion curves, not just summaries")
		dir     = flag.String("dir", os.TempDir(), "scratch directory for file-IO experiments")
		micro   = flag.Int("micropairs", experiments.PartitionMicroPairs, "pair count for the partition micro-benchmark")
		srvCli  = flag.Int("serveclients", 1000, "concurrent streaming clients in the serving-tier experiment")
		srvReqs = flag.Int("servereqs", 3, "requests per client in the serving-tier mix phase")
		srvUniq = flag.Int("serveuniques", 64, "distinct queries in the serving-tier zipf mix")
		joinScl = flag.Float64("joinscale", 1.0, "input-extent scale for the structural-join skew experiment (CI runs reduced)")
		jsonTo  = flag.String("json", "", "write a machine-readable benchmark summary to this file and exit")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: sidrbench [flags]")
		fmt.Fprintln(flag.CommandLine.Output(), "cluster experiments run on the simulator; in-process engine runs")
		fmt.Fprintln(flag.CommandLine.Output(), "(see sidrquery, sidrd) default Map/Reduce workers to GOMAXPROCS")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *jsonTo != "" {
		if err := writeBenchJSON(*jsonTo, *exp, *seed, *micro, *srvCli, *srvReqs, *srvUniq, *joinScl); err != nil {
			fmt.Fprintf(os.Stderr, "sidrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonTo)
		return
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
	run("chaos", func() error {
		fmt.Println("chaos experiment: clustered query with 0 and 1 injected worker deaths (real workers, loopback)")
		rs, err := chaosExperiment(*seed)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Println("  " + r.Format())
		}
		return nil
	})
	run("churn", func() error {
		fmt.Println("churn experiment: post-Map worker death, replica re-fetch vs split re-execution (real workers, loopback)")
		r, err := churnExperiment(*seed)
		if err != nil {
			return err
		}
		for _, cr := range r.Runs {
			fmt.Println("  " + cr.Format())
		}
		fmt.Printf("  dispatch locality ratio: %.2f\n", r.LocalityRatio)
		return nil
	})
	run("prune", func() error {
		fmt.Println("structural-index pruning: selective filter, indexed vs unindexed (real engine)")
		r, err := pruneExperiment(*runs)
		if err != nil {
			return err
		}
		fmt.Println("  " + r.Format())
		return nil
	})
	run("serve", func() error {
		fmt.Printf("serving tier: %d streaming clients, zipf mix over %d queries + identical-query burst\n", *srvCli, *srvUniq)
		r, err := serveExperiment(*seed, *srvCli, *srvReqs, *srvUniq)
		if err != nil {
			return err
		}
		fmt.Println("  " + r.Format())
		return nil
	})
	run("join", func() error {
		fmt.Println("structural join: zipf-skewed side B, re-tiling on vs off (real engine)")
		r, err := joinExperiment(*seed, *joinScl, *runs)
		if err != nil {
			return err
		}
		fmt.Println("  " + r.Format())
		return nil
	})
}

// benchCurve is one Figure 9/10 curve's headline numbers.
type benchCurve struct {
	Label          string  `json:"label"`
	FirstResultSec float64 `json:"first_result_s"`
	TotalSec       float64 `json:"total_s"`
	MapFracAtFirst float64 `json:"map_frac_at_first"`
}

// benchReport is the BENCH_PR*.json schema: the cross-PR perf snapshot.
// sidrbench/3 added the chaos experiment (fault-recovery latency on real
// workers); sidrbench/4 added the structural-index pruning experiment;
// sidrbench/6 added the serving-tier experiment (result cache, query
// collapsing, per-path latency percentiles under 1000 streaming
// clients); sidrbench/7 added the structural-join skew experiment;
// sidrbench/8 added the churn experiment (post-Map worker death:
// replica re-fetch vs split re-execution, plus dispatch locality);
// sidrbench/9 drops the shuffle_micro and shuffle sections with the
// per-spill path they measured (bench/'s shuffle_median replaces them).
type benchReport struct {
	Schema string       `json:"schema"`
	Seed   int64        `json:"seed"`
	Fig9   []benchCurve `json:"fig9"`
	Fig10  []benchCurve `json:"fig10"`
	Engine struct {
		Query           string  `json:"query"`
		Rows            int     `json:"rows"`
		FirstResultMS   float64 `json:"first_result_ms"`
		ElapsedMS       float64 `json:"elapsed_ms"`
		TasksDispatched int64   `json:"tasks_dispatched"`
	} `json:"engine"`
	PartitionMicro struct {
		Pairs       int     `json:"pairs"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  float64 `json:"bytes_per_op"`
	} `json:"partition_micro"`
	Chaos []chaosResult `json:"chaos"`
	Churn churnResult   `json:"churn"`
	Prune pruneResult   `json:"prune"`
	Serve serveResult   `json:"serve"`
	Join  joinResult    `json:"join"`
}

func toBenchCurves(rs []experiments.CurveResult) []benchCurve {
	out := make([]benchCurve, len(rs))
	for i, cr := range rs {
		out[i] = benchCurve{
			Label:          cr.Label,
			FirstResultSec: cr.FirstResult,
			TotalSec:       cr.Makespan,
			MapFracAtFirst: cr.MapFracAtFirst,
		}
	}
	return out
}

// writeBenchJSON runs the headline experiments and one real in-process
// engine query, and writes the summary file. exp narrows the snapshot
// to one experiment's section (-exp join -json ... in CI); "all" fills
// every section.
func writeBenchJSON(path, exp string, seed int64, microPairs, serveClients, serveReqs, serveUniques int, joinScale float64) error {
	rep := benchReport{Schema: "sidrbench/9", Seed: seed}
	cfg := experiments.TestbedConfig(seed)
	want := func(name string) bool { return exp == "all" || exp == name }

	if want("fig9") {
		rs, err := experiments.Figure9(cfg)
		if err != nil {
			return err
		}
		rep.Fig9 = toBenchCurves(rs)
	}
	if want("fig10") {
		rs, err := experiments.Figure10(cfg)
		if err != nil {
			return err
		}
		rep.Fig10 = toBenchCurves(rs)
	}

	if want("engine") {
		// A real engine run (not simulated): SIDR engine, dependency
		// barrier, streamed partials — the serving path's wall-clock.
		const engineQuery = "avg v[0,0 : 512,512] es {16,16}"
		ds, err := sidr.Synthetic([]int64{512, 512}, func(k []int64) float64 {
			return float64(k[0]^k[1]) * 0.25
		})
		if err != nil {
			return err
		}
		defer ds.Close()
		q, err := sidr.ParseQuery(engineQuery)
		if err != nil {
			return err
		}
		res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: 8})
		if err != nil {
			return err
		}
		rep.Engine.Query = engineQuery
		rep.Engine.Rows = len(res.Keys)
		rep.Engine.FirstResultMS = float64(res.FirstResult) / float64(time.Millisecond)
		rep.Engine.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
		rep.Engine.TasksDispatched = res.TasksDispatched
	}

	if want("partmicro") {
		allocs, bytes, ns, err := experiments.PartitionMicroAllocs(microPairs, 22)
		if err != nil {
			return err
		}
		rep.PartitionMicro.Pairs = microPairs
		rep.PartitionMicro.NsPerOp = ns
		rep.PartitionMicro.AllocsPerOp = allocs
		rep.PartitionMicro.BytesPerOp = bytes
	}

	var err error
	if want("chaos") {
		if rep.Chaos, err = chaosExperiment(seed); err != nil {
			return err
		}
	}

	if want("churn") {
		if rep.Churn, err = churnExperiment(seed); err != nil {
			return err
		}
	}

	if want("prune") {
		if rep.Prune, err = pruneExperiment(5); err != nil {
			return err
		}
	}

	if want("serve") {
		if rep.Serve, err = serveExperiment(seed, serveClients, serveReqs, serveUniques); err != nil {
			return err
		}
	}

	if want("join") {
		if rep.Join, err = joinExperiment(seed, joinScale, 3); err != nil {
			return err
		}
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
