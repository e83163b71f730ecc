// Pipelined: the paper's §6 vision of feeding SIDR's early, orderable,
// correct results into pipe-lined computations. A two-stage analysis —
// daily→weekly averages, then weekly→monthly ranges — runs with the
// stages overlapped: each downstream Map task starts as soon as the
// upstream keyblocks covering its input have committed, instead of
// waiting for stage 1 to finish.
package main

import (
	"fmt"
	"log"

	"sidr/internal/coords"
	"sidr/internal/datagen"
	"sidr/internal/mapreduce"
	"sidr/internal/pipeline"
	"sidr/internal/query"
)

func main() {
	mustQ := func(s string) *query.Query {
		q, err := query.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		return q
	}

	// Stage 1: {364, 40} daily temperatures -> {52, 8} weekly averages
	// over 5-latitude bands. Stage 2: -> {13, 8} four-week temperature
	// ranges (a simple variability index).
	stages := []pipeline.Stage{
		{Query: mustQ("avg temp[0,0 : 364,40] es {7,5}"), Reducers: 4},
		{Query: mustQ("range weekly[0,0 : 52,8] es {4,1}"), Reducers: 2},
	}

	events := make(chan string, 256)
	res, err := pipeline.Run(
		&mapreduce.FuncReader{Fn: datagen.Temperature(11)},
		stages,
		pipeline.Options{
			OnEvent: func(stage int, e mapreduce.Event) {
				if e.Kind == mapreduce.ReduceEnd {
					events <- fmt.Sprintf("stage %d keyblock %d committed", stage+1, e.Detail)
				}
			},
		},
	)
	close(events)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("commit order (interleaving = overlapped stages):")
	for line := range events {
		fmt.Println("  " + line)
	}
	fmt.Printf("\n%d downstream map tasks started before stage 1 finished\n", res.OverlappedStarts)

	out := res.Final.Outputs
	var keys []coords.Coord
	var vals []float64
	for _, o := range out {
		for i := range o.Keys {
			keys = append(keys, o.Keys[i])
			vals = append(vals, o.Values[i][0])
		}
	}
	fmt.Printf("final output: %d four-week variability indices; e.g. period %v -> %.2f °C swing\n",
		len(keys), keys[0], vals[0])
}
