// Windspeed: the paper's Query 1 (§4.1) at laptop scale — a median over
// a 4-dimensional windspeed dataset — run under all three engines plus a
// paper-scale simulation of the same query on the same job loop, reproducing
// the Figure 9 comparison end to end.
package main

import (
	"fmt"
	"log"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/experiments"
)

func main() {
	// Laptop-scale analogue of Query 1: same rank, same extraction-shape
	// structure, reduced extents ({7200,360,720,50} -> {48,36,36,10}).
	gen := datagen.Windspeed(1)
	ds, err := sidr.Synthetic([]int64{48, 36, 36, 10}, func(k []int64) float64 {
		return gen(coords.Coord(k))
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	q, err := sidr.ParseQuery("median windspeed[0,0,0,0 : 48,36,36,10] es {2,36,36,10}")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Query 1 at laptop scale (real execution):")
	var reference *sidr.Result
	for _, engine := range []sidr.Engine{sidr.Hadoop, sidr.SciHadoop, sidr.SIDR} {
		res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: engine, Reducers: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10v %4d medians, first result at %5.1f%% of runtime, %5d connections\n",
			engine, len(res.Keys), 100*float64(res.FirstResult)/float64(res.Elapsed), res.Connections)
		if reference == nil {
			reference = res
		} else {
			for i := range res.Keys {
				if res.Values[i][0] != reference.Values[i][0] {
					log.Fatalf("%v disagrees with Hadoop at key %v", engine, res.Keys[i])
				}
			}
		}
	}
	fmt.Println("  all engines produced identical medians")

	fmt.Println("\nQuery 1 at paper scale (simulated 24-node testbed, Figure 9):")
	cfg := experiments.TestbedConfig(1)
	for _, engine := range []core.Engine{core.EngineHadoop, core.EngineSciHadoop, core.EngineSIDR} {
		p, err := experiments.PaperPlan(experiments.Query1(), engine, 22)
		if err != nil {
			log.Fatal(err)
		}
		w, err := experiments.PaperWorkload(p, 0)
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiments.Simulate(p, cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10v first result %7.1fs, total %7.1fs\n",
			engine, res.Stats.FirstResult, res.Stats.Makespan)
	}
}
