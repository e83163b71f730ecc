package sidr_test

import (
	"fmt"
	"sort"
	"sync"

	"sidr"
)

// checkerboard is a deterministic toy dataset: value = row + col.
func checkerboard(k []int64) float64 { return float64(k[0] + k[1]) }

// ExampleRun computes 2×2 block averages of a small grid with the SIDR
// engine.
func ExampleRun() {
	ds, err := sidr.Synthetic([]int64{4, 4}, checkerboard)
	if err != nil {
		panic(err)
	}
	defer ds.Close()
	q, err := sidr.ParseQuery("avg grid[0,0 : 4,4] es {2,2}")
	if err != nil {
		panic(err)
	}
	res, err := sidr.Run(ds, q, sidr.RunOptions{Engine: sidr.SIDR, Reducers: 2})
	if err != nil {
		panic(err)
	}
	for i, k := range res.Keys {
		fmt.Printf("%v -> %.1f\n", k, res.Values[i][0])
	}
	// Output:
	// [0 0] -> 1.0
	// [0 1] -> 3.0
	// [1 0] -> 3.0
	// [1 1] -> 5.0
}

// ExampleRun_earlyResults streams each keyblock as soon as its data
// dependencies are met.
func ExampleRun_earlyResults() {
	ds, _ := sidr.Synthetic([]int64{8, 2}, checkerboard)
	defer ds.Close()
	q, _ := sidr.ParseQuery("max grid[0,0 : 8,2] es {2,2}")
	var (
		mu      sync.Mutex // partials may arrive concurrently
		regions []int
	)
	_, err := sidr.Run(ds, q, sidr.RunOptions{
		Engine:   sidr.SIDR,
		Reducers: 2,
		OnPartial: func(pr sidr.PartialResult) {
			mu.Lock()
			regions = append(regions, pr.Keyblock)
			mu.Unlock()
		},
	})
	if err != nil {
		panic(err)
	}
	sort.Ints(regions)
	fmt.Println(regions)
	// Output:
	// [0 1]
}

// ExampleParseQuery shows the structural query syntax.
func ExampleParseQuery() {
	q, err := sidr.ParseQuery("median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}")
	if err != nil {
		panic(err)
	}
	space, _ := q.OutputSpace()
	fmt.Println(q.Variable(), space)
	// Output:
	// windspeed [3600 10 20 5]
}
