// Package experiments contains one driver per table and figure in the
// paper's evaluation (§4), regenerating the same rows and series from
// this repository's implementation. Cluster-scale runs (Figures 9-13,
// the §6 failure study) execute the real planner — real splits, real
// partition+ keyblocks, real dependency graphs — and the real job loop on
// the virtual-time testbed model (internal/simcluster); Table 2 and the
// partition+ micro-benchmark perform real file IO and real partitioning
// work.
package experiments

import (
	"fmt"
	"sync"

	"sidr/internal/core"
	"sidr/internal/hdfs"
	"sidr/internal/mapreduce"
	"sidr/internal/ops"
	"sidr/internal/partition"
	"sidr/internal/query"
	"sidr/internal/simcluster"
	"sidr/internal/trace"
)

// paperSplits is the paper's input-split count for the 348 GB Query 1/2
// dataset at a 128 MB HDFS block size (§4.1).
const paperSplits = 2781

// Query1 returns the paper's Query 1 (§4.1): a median over the
// {7200, 360, 720, 50} windspeed dataset with extraction shape
// {2, 36, 36, 10} — 300 days of hourly windspeed reduced to 2-day medians
// per 18°×36°×10-elevation region.
func Query1() *query.Query {
	q, err := query.Parse("median windspeed[0,0,0,0 : 7200,360,720,50] es {2,36,36,10}")
	if err != nil {
		panic(err) // the literal is constant and tested
	}
	return q
}

// query2 returns the paper's Query 2 (§4.1): a filter over a same-sized
// normally distributed dataset returning values more than three standard
// deviations above the mean (0.1% of the data), with extraction shape
// {2, 40, 40, 10}.
func query2() *query.Query {
	q, err := query.Parse("filter_gt gauss[0,0,0,0 : 7200,360,720,50] es {2,40,40,10} param 3")
	if err != nil {
		panic(err)
	}
	return q
}

// PaperPlan derives a paper-scale plan: the query split into exactly
// paperSplits leading-dimension bands (matching the paper's 2,781) with
// the given engine and reducer count.
func PaperPlan(q *query.Query, engine core.Engine, reducers int) (*core.Plan, error) {
	return paperPlanEncoded(q, engine, reducers, nil)
}

// paperBytesPerPoint is the dataset element size (the paper stores int
// values; 348 GB over 93.31 G points ≈ 4 bytes).
const paperBytesPerPoint = 4

// paperPlanEncoded is PaperPlan with an explicit modulo key encoding
// (used by the Figure 13 skew experiment). Splits carry locality hints
// from a simulated 24-node HDFS namespace holding the dataset at 3×
// replication, so simulated Map placement works on realistic block
// placements.
//
// A paper-scale plan walks millions of K' tiles to derive I_ℓ, and the
// figures ask for the same few again and again, so each distinct plan is
// built once per process. Plans are read-only after NewPlan; callers
// share the returned value.
func paperPlanEncoded(q *query.Query, engine core.Engine, reducers int, enc partition.KeyEncoding) (*core.Plan, error) {
	key := fmt.Sprintf("%v|%v|%d|%T%v", q, engine, reducers, enc, enc)
	paperPlans.Lock()
	defer paperPlans.Unlock()
	if p, ok := paperPlans.m[key]; ok {
		return p, nil
	}
	p, err := buildPaperPlan(q, engine, reducers, enc)
	if err == nil {
		paperPlans.m[key] = p
	}
	return p, err
}

// paperPlans memoises paperPlanEncoded. Building under the lock keeps two
// callers from deriving the same plan twice.
var paperPlans = struct {
	sync.Mutex
	m map[string]*core.Plan
}{m: map[string]*core.Plan{}}

func buildPaperPlan(q *query.Query, engine core.Engine, reducers int, enc partition.KeyEncoding) (*core.Plan, error) {
	slabs, err := q.Input.SplitDimCount(0, paperSplits)
	if err != nil {
		return nil, err
	}
	ns, err := hdfs.NewNamespace(simcluster.Nodes(24), hdfs.Config{Seed: 24})
	if err != nil {
		return nil, err
	}
	const file = "dataset.ncf"
	if err := ns.AddFile(file, q.Input.Size()*paperBytesPerPoint); err != nil {
		return nil, err
	}
	splits := make([]mapreduce.InputSplit, len(slabs))
	var off int64
	for i, s := range slabs {
		hosts, err := ns.RangeHosts(file, off*paperBytesPerPoint, s.Size()*paperBytesPerPoint)
		if err != nil {
			return nil, err
		}
		// The best three replicas suffice for the scheduler.
		if len(hosts) > 3 {
			hosts = hosts[:3]
		}
		splits[i] = mapreduce.InputSplit{ID: i, Slab: s, Hosts: hosts}
		off += s.Size()
	}
	return core.NewPlan(q, engine, core.Options{
		Reducers:    reducers,
		Splits:      splits,
		KeyEncoding: enc,
	})
}

// TestbedConfig returns the simulated cluster matching the paper's
// testbed (§4, Experimental Setup): 24 DataNode/TaskTracker nodes with 4
// Map and 3 Reduce slots each, GigE networking, and cost constants
// calibrated so SciHadoop's Query 1 Map phase completes around 850 s and
// total around 1,250 s at 22 Reduce tasks — the regime of Figure 9.
func TestbedConfig(seed int64) simcluster.Config {
	return simcluster.Config{
		Workers:     24,
		MapSlots:    4,
		ReduceSlots: 3,
		// 2,781 maps over 96 slots = 29 waves; ~29 s per map.
		MapBase:         2.0,
		MapPerPoint:     8.1e-7,
		LocalityPenalty: 1.25,
		JitterFrac:      0.10,
		// One GigE link shared by ~3 concurrent reduce fetch streams.
		ShuffleBandwidth: 40e6,
		ReduceBase:       2.0,
		ReducePerPair:    6.5e-8,
		Seed:             seed,
	}
}

// PaperWorkload derives the simulator workload from a paper-scale plan,
// charging shuffle bytes faithfully to the operator class: holistic
// operators ship every source sample (8 bytes each); distributive and
// filter operators ship combined pairs (filters ship only survivors,
// estimated with the survivor fraction).
func PaperWorkload(p *core.Plan, survivorFrac float64) (simWorkload, error) {
	op, err := p.Query.Op()
	if err != nil {
		return simWorkload{}, err
	}
	w := simWorkload{}
	for _, s := range p.Splits {
		w.Splits = append(w.Splits, simcluster.Split{Points: s.Slab.Size()})
	}
	const pairOverhead = 40 // serialised kv.Value header bytes
	for l := 0; l < p.Part.NumKeyblocks(); l++ {
		src := p.Graph.ExpectedCount[l]
		var pairs, inBytes, outBytes int64
		switch op.Kind() {
		case ops.Holistic:
			// Every source sample crosses the network and is merged.
			pairs = src
			inBytes = src * 8
			outBytes = keysIn(p, l) * 8
		case ops.Filter:
			surv := int64(float64(src) * survivorFrac)
			pairs = surv
			inBytes = surv*8 + keysIn(p, l)*pairOverhead
			outBytes = surv * 16 // coordinate/value pairs
		default: // distributive
			pairs = keysIn(p, l)
			inBytes = pairs * pairOverhead
			outBytes = pairs * 8
		}
		w.Reduces = append(w.Reduces, simcluster.Reduce{Pairs: pairs, InBytes: inBytes, OutBytes: outBytes})
	}
	return w, nil
}

// keysIn returns the number of K' keys with data in keyblock l.
func keysIn(p *core.Plan, l int) int64 {
	if p.Keyblocks != nil {
		return p.Keyblocks[l].Size()
	}
	// Modulo keyblocks: expected count divided by tile size.
	tile := p.Query.Extraction.Shape.Size()
	if tile == 0 {
		tile = 1
	}
	return p.Graph.ExpectedCount[l] / tile
}

// CurveResult summarises one simulated configuration for a
// task-completion figure.
type CurveResult struct {
	// Label names the curve the way the figure legend does, e.g.
	// "22 Reduces(SS)".
	Label string
	// MapsDone, FirstResult and Makespan are the headline times.
	MapsDone    float64
	FirstResult float64
	Makespan    float64
	// ReduceQuartiles are the times at which 25/50/75/100% of Reduce
	// output was available.
	ReduceQuartiles [4]float64
	// MapFracAtFirst is the fraction of Map tasks that had completed
	// when the first result arrived — the abstract's "initial results
	// with only 6% of the query completed" metric.
	MapFracAtFirst float64
	// Connections is the shuffle-connection total (Table 3's metric).
	Connections int64
	// Result retains the raw trace for rendering full curves.
	Result *simcluster.Result
}

// summarize converts a simulated run into a CurveResult.
func summarize(label string, res *simcluster.Result) CurveResult {
	s := res.Trace.SeriesOf(trace.Reduce)
	cr := CurveResult{
		Label:       label,
		MapsDone:    res.Stats.MapsDone,
		FirstResult: res.Stats.FirstResult,
		Makespan:    res.Stats.Makespan,
		Connections: res.Stats.Connections,
		Result:      res,
	}
	for i, f := range []float64{0.25, 0.5, 0.75, 1.0} {
		cr.ReduceQuartiles[i] = s.TimeAtFraction(f)
	}
	cr.MapFracAtFirst = res.Trace.SeriesOf(trace.Map).FractionAt(cr.FirstResult)
	return cr
}

// Format renders the result as one harness output row.
func (c CurveResult) Format() string {
	return fmt.Sprintf("%-24s mapsDone=%7.1fs first=%7.1fs (maps %3.0f%%) q50=%7.1fs total=%7.1fs conns=%d",
		c.Label, c.MapsDone, c.FirstResult, c.MapFracAtFirst*100, c.ReduceQuartiles[1], c.Makespan, c.Connections)
}
