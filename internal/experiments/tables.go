package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/ncfile"
	"sidr/internal/partition"
)

// table2Row is one row of the Reduce-output write-scaling experiment
// (§4.4): the time and file size for a single representative Reduce task
// to write its output under each strategy, as the total output space
// scales with the Reduce task count.
type table2Row struct {
	Strategy     ncfile.OutputStrategy
	TotalReduces int
	// Seconds is the mean write time over Runs runs; StdDev its standard
	// deviation.
	Seconds float64
	StdDev  float64
	// Bytes is the written file's size.
	Bytes int64
}

// Format renders the row in Table 2's layout.
func (r table2Row) Format() string {
	return fmt.Sprintf("%-8s reduces=%3d time=%8.4fs (σ %.4f) size=%8.2f MB",
		r.Strategy, r.TotalReduces, r.Seconds, r.StdDev, float64(r.Bytes)/(1<<20))
}

// table2Config parametrises the write-scaling micro-benchmark.
type table2Config struct {
	// Dir is the directory files are written into.
	Dir string
	// PointsPerTask is the useful output of one Reduce task (fixed as
	// the experiment scales, per §4.4).
	PointsPerTask int64
	// ReduceCounts are the total-output scales to test (paper: 20, 40,
	// 80).
	ReduceCounts []int
	// Runs is the per-cell repetition count (paper: 10).
	Runs int
}

// DefaultTable2Config returns a laptop-scale version of the paper's
// experiment: the per-task output is fixed and the total output space
// doubles with the task count, so the sentinel strategy's cost doubles
// per row while SIDR's dense write stays constant.
func DefaultTable2Config(dir string) table2Config {
	return table2Config{
		Dir:           dir,
		PointsPerTask: 1 << 16, // 512 KiB of useful output per task
		ReduceCounts:  []int{20, 40, 80},
		Runs:          5,
	}
}

// Table2 runs the write-scaling experiment with real file IO.
//
// For each total-Reduce count R it writes one representative task's
// output: the sentinel strategy creates a file spanning the whole
// R-task output space (R × PointsPerTask values) filled with sentinels
// and scatters the task's values into every R-th slot — modulo
// partitioning assigns it keys strided across the space; the SIDR row
// writes the task's contiguous keyblock as a dense file with an origin.
func Table2(cfg table2Config) ([]table2Row, error) {
	if cfg.Runs < 1 || cfg.PointsPerTask < 1 || len(cfg.ReduceCounts) == 0 {
		return nil, fmt.Errorf("experiments: bad Table 2 config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, cfg.PointsPerTask)
	for i := range values {
		values[i] = rng.NormFloat64()
	}

	var rows []table2Row
	for _, r := range cfg.ReduceCounts {
		total := coords.NewShape(int64(r) * cfg.PointsPerTask)
		// Modulo partitioning hands this task every R-th key.
		keys := make([]coords.Coord, cfg.PointsPerTask)
		for i := range keys {
			keys[i] = coords.NewCoord(int64(i) * int64(r))
		}
		secs, sd, bytes, err := timed(cfg.Runs, func(run int) (int64, error) {
			path := filepath.Join(cfg.Dir, fmt.Sprintf("sentinel-%d-%d.ncf", r, run))
			defer os.Remove(path)
			return ncfile.WriteSentinel(path, "out", total, ncfile.DefaultSentinel, keys, values)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, table2Row{Strategy: ncfile.Sentinel, TotalReduces: r, Seconds: secs, StdDev: sd, Bytes: bytes})
	}

	// SIDR: one dense contiguous keyblock, independent of the total.
	kb := coords.MustSlab(coords.NewCoord(0), coords.NewShape(cfg.PointsPerTask))
	secs, sd, bytes, err := timed(cfg.Runs, func(run int) (int64, error) {
		path := filepath.Join(cfg.Dir, fmt.Sprintf("dense-%d.ncf", run))
		defer os.Remove(path)
		return ncfile.WriteDense(path, "out", kb, values)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, table2Row{Strategy: ncfile.Dense, TotalReduces: 0, Seconds: secs, StdDev: sd, Bytes: bytes})

	// Coordinate/value pairs: the paper's alternative sparse layout with
	// constant per-value overhead.
	keys1 := make([]coords.Coord, cfg.PointsPerTask)
	for i := range keys1 {
		keys1[i] = coords.NewCoord(int64(i) * 20)
	}
	secs, sd, bytes, err = timed(cfg.Runs, func(run int) (int64, error) {
		path := filepath.Join(cfg.Dir, fmt.Sprintf("pairs-%d.ncfp", run))
		defer os.Remove(path)
		return ncfile.WritePairs(path, 1, keys1, values)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, table2Row{Strategy: ncfile.Pairs, TotalReduces: 0, Seconds: secs, StdDev: sd, Bytes: bytes})
	return rows, nil
}

// timed runs fn `runs` times returning mean seconds, standard deviation,
// and the byte count of the final run.
func timed(runs int, fn func(run int) (int64, error)) (mean, stddev float64, bytes int64, err error) {
	var sum, sumSq float64
	for i := 0; i < runs; i++ {
		start := time.Now()
		bytes, err = fn(i)
		if err != nil {
			return 0, 0, 0, err
		}
		s := time.Since(start).Seconds()
		sum += s
		sumSq += s * s
	}
	mean = sum / float64(runs)
	v := sumSq/float64(runs) - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, sqrt(v), bytes, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// table3Row is one row of the shuffle-connection scaling table (§4.6).
type table3Row struct {
	Maps        int
	Reduces     int
	HadoopConns int64
	SIDRConns   int64
}

// Format renders the row in Table 3's layout.
func (r table3Row) Format() string {
	return fmt.Sprintf("%d/%-5d hadoop=%-10d sidr=%d", r.Maps, r.Reduces, r.HadoopConns, r.SIDRConns)
}

// Table3 regenerates Table 3: total Map↔Reduce connections for Query 1
// as the Reduce count scales. Hadoop's count is Maps×Reduces; SIDR's is
// Σ|I_ℓ| computed from the real dependency graphs.
func Table3() ([]table3Row, error) {
	q := Query1()
	var rows []table3Row
	for _, r := range []int{22, 66, 132, 264, 528, 1024} {
		p, err := PaperPlan(q, core.EngineSIDR, r)
		if err != nil {
			return nil, err
		}
		rows = append(rows, table3Row{
			Maps:        len(p.Splits),
			Reduces:     r,
			HadoopConns: p.Graph.HadoopConnections(),
			SIDRConns:   p.Graph.SIDRConnections(),
		})
	}
	return rows, nil
}

// partitionMicroResult reports the §4.5 partitioning micro-benchmark:
// the time to partition PairCount intermediate key/value pairs with the
// default partitioner and with partition+.
type partitionMicroResult struct {
	PairCount    int
	Runs         int
	DefaultSecs  float64
	DefaultStdev float64
	PlusSecs     float64
	PlusStdev    float64
}

// Format renders the result like §4.5's prose (times in milliseconds).
func (r partitionMicroResult) Format() string {
	return fmt.Sprintf("partition %d pairs over %d runs: default=%.1fms (σ %.1f)  partition+=%.1fms (σ %.1f)",
		r.PairCount, r.Runs, r.DefaultSecs*1e3, r.DefaultStdev*1e3, r.PlusSecs*1e3, r.PlusStdev*1e3)
}

// PartitionMicroPairs is the paper's pair count (6.48M).
const PartitionMicroPairs = 6_480_000

// PartitionMicro loads pairCount intermediate pairs into memory and
// measures only the partitioning time of each function, mirroring §4.5's
// methodology.
func PartitionMicro(pairCount, runs, reducers int) (partitionMicroResult, error) {
	if pairCount < 1 || runs < 1 || reducers < 1 {
		return partitionMicroResult{}, fmt.Errorf("experiments: bad partition micro config")
	}
	// A 2-D intermediate keyspace big enough to hold pairCount distinct
	// keys.
	rows := int64(pairCount+999) / 1000
	space := coords.Slab{Corner: coords.NewCoord(0, 0), Shape: coords.NewShape(rows, 1000)}
	keys := make([]coords.Coord, pairCount)
	for i := range keys {
		kp, err := space.Delinearize(int64(i))
		if err != nil {
			return partitionMicroResult{}, err
		}
		keys[i] = kp
	}

	mod, err := partition.NewModulo(reducers, partition.TileIndexEncoding{Space: space})
	if err != nil {
		return partitionMicroResult{}, err
	}
	pp, err := partition.NewPartitionPlus(space, reducers, 0, nil)
	if err != nil {
		return partitionMicroResult{}, err
	}

	measure := func(p partition.Partitioner) (float64, float64, error) {
		var sum, sumSq float64
		for run := 0; run < runs; run++ {
			start := time.Now()
			var sink int
			for _, kp := range keys {
				idx, err := p.Partition(kp)
				if err != nil {
					return 0, 0, err
				}
				sink += idx
			}
			s := time.Since(start).Seconds()
			if sink < 0 {
				return 0, 0, fmt.Errorf("impossible")
			}
			sum += s
			sumSq += s * s
		}
		mean := sum / float64(runs)
		v := sumSq/float64(runs) - mean*mean
		return mean, sqrt(v), nil
	}

	res := partitionMicroResult{PairCount: pairCount, Runs: runs}
	if res.DefaultSecs, res.DefaultStdev, err = measure(mod); err != nil {
		return res, err
	}
	if res.PlusSecs, res.PlusStdev, err = measure(pp); err != nil {
		return res, err
	}
	return res, nil
}
