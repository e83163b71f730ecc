package main

import (
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/datagen"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/query"
	"sidr/internal/sidx"
)

// localEnv runs one query in process, over one file or — for a join —
// two. Untraced queries go through the facade (sidr.Run / sidr.RunJoin);
// traced ones derive the same plan and run it through
// core.Plan.RunLocal, whose result carries the engine's task event log.
type localEnv struct {
	rec      *recorder
	dir      string
	queryStr string
	q        *sidr.Query
	iq       *query.Query
	dsA, dsB *sidr.Dataset // dsB nil unless a join
	fA, fB   *ncfile.File  // second handles for the traced path and the replay
	opts     sidr.RunOptions
	points   int64
	want     uint64
	info     map[string]any

	buildS     float64 // sidx build time at set-up
	indexBytes int64

	// Sums over the traced queries, from each run's event log.
	mapTask, reduceTask, reduceWait float64
	dispatched                      int64
}

func (e *localEnv) clients() int           { return 1 }
func (e *localEnv) probeQueries() int      { return 1 }
func (e *localEnv) params() map[string]any { return e.info }
func (e *localEnv) finish() (int, error)   { return 0, nil }

func (e *localEnv) close() {
	for _, ds := range []*sidr.Dataset{e.dsA, e.dsB} {
		if ds != nil {
			ds.Close()
		}
	}
	for _, f := range []*ncfile.File{e.fA, e.fB} {
		if f != nil {
			f.Close()
		}
	}
}

// openLocal opens the files and parses the query; set-up work common to
// the three in-process workloads.
func openLocal(rec *recorder, dir, queryStr, pathA, pathB string, opts sidr.RunOptions) (*localEnv, error) {
	e := &localEnv{rec: rec, dir: dir, queryStr: queryStr, opts: opts}
	var err error
	if e.q, err = sidr.ParseQuery(queryStr); err != nil {
		return nil, err
	}
	if e.iq, err = query.Parse(queryStr); err != nil {
		return nil, err
	}
	if e.dsA, err = sidr.Open(pathA, e.iq.Variable); err != nil {
		return nil, err
	}
	if e.fA, err = ncfile.Open(pathA); err != nil {
		return nil, err
	}
	e.points = e.iq.Input.Size()
	if pathB != "" {
		if e.dsB, err = sidr.Open(pathB, e.iq.Variable2); err != nil {
			return nil, err
		}
		if e.fB, err = ncfile.Open(pathB); err != nil {
			return nil, err
		}
		e.points += e.iq.Input2.Size()
	}
	return e, nil
}

func (e *localEnv) prepare() (err error) {
	e.want, err = reference(e.dsA, e.dsB, e.q, e.opts.Reducers, e.opts.SplitPoints)
	return err
}

func (e *localEnv) warm() error {
	for i := 0; i < 2; i++ {
		if s := e.query(-1, false); !s.ok {
			return s.failure()
		}
	}
	return nil
}

func (e *localEnv) query(i int, traced bool) sample {
	s := sample{points: e.points, executed: true, repeat: true, traced: traced}
	if traced {
		e.tracedQuery(int64(i), &s)
		return s
	}
	var first firstMark
	start := time.Now()
	opts := e.opts
	opts.OnPartial = func(p sidr.PartialResult) { first.note(p.Values) }
	var res *sidr.Result
	var err error
	if e.dsB != nil {
		res, err = sidr.RunJoin(e.dsA, e.dsB, e.q, opts)
	} else {
		res, err = sidr.Run(e.dsA, e.q, opts)
	}
	s.total = time.Since(start).Seconds()
	first.since(start, &s)
	s.err = err
	s.ok = err == nil && verify(res.Keys, res.Values, e.want)
	return s
}

// planOptions are the core options the facade derives from RunOptions.
func (e *localEnv) planOptions() core.Options {
	o := core.Options{Reducers: e.opts.Reducers, SplitPoints: e.opts.SplitPoints, MaxSkew: e.opts.MaxSkew, Index: e.opts.Index}
	if e.dsB != nil {
		o.JoinSamplerA = &mapreduce.FileReader{File: e.fA, Var: e.iq.Variable}
		o.JoinSamplerB = &mapreduce.FileReader{File: e.fB, Var: e.iq.Variable2}
	}
	return o
}

func (e *localEnv) tracedQuery(qid int64, s *sample) {
	start := time.Now()
	plan, err := core.NewPlan(e.iq, core.EngineSIDR, e.planOptions())
	if err != nil {
		s.err = err
		return
	}
	planned := time.Now()
	readerA := &mapreduce.FileReader{File: e.fA, Var: e.iq.Variable}
	var res *mapreduce.Result
	if plan.Join != nil {
		res, err = plan.RunLocalJoin(readerA, &mapreduce.FileReader{File: e.fB, Var: e.iq.Variable2}, nil)
	} else {
		res, err = plan.RunLocal(readerA, nil)
	}
	if err != nil {
		s.err = err
		return
	}
	outs := make([]keyblockOut, len(res.Outputs))
	for i, out := range res.Outputs {
		outs[i] = keyblockOut{out.Keys, out.Values}
	}
	keys, values, err := assemble(plan.Join, outs)
	if err != nil {
		s.err = err
		return
	}
	end := time.Now()
	s.total = end.Sub(start).Seconds()
	s.ok = verify(keys, values, e.want)

	root := e.rec.add(0, qid, "query", start, end)
	e.rec.add(root, qid, "core.new_plan", start, planned)
	tt := eventSpans(e.rec, root, qid, res, plan.Graph.KBToSplits, func(kb int) bool {
		return hasValue(res.Outputs[kb].Values)
	})
	if tt.first > 0 {
		firstAt := res.Started.Add(tt.first)
		s.first, s.gotFirst = firstAt.Sub(start).Seconds(), true
		e.rec.add(root, qid, "first_result", start, firstAt)
	}
	e.mapTask += tt.mapTask
	e.reduceTask += tt.reduceTask
	e.reduceWait += tt.reduceWait
	e.dispatched += res.Counters.TasksDispatched
}

func (e *localEnv) layers(m map[string]float64, samples []sample) error {
	if n := tracedCount(samples); n > 0 {
		m["mapreduce.map_task_s"] = e.mapTask / n
		m["mapreduce.reduce_task_s"] = e.reduceTask / n
		m["mapreduce.reduce_wait_s"] = e.reduceWait / n
		m["mapreduce.tasks_dispatched"] = float64(e.dispatched) / n
	}
	if e.opts.Index != nil {
		m["sidx.build_s"] = e.buildS
		m["sidx.index_bytes"] = float64(e.indexBytes)
	}
	return replay(e.rec, -1, replayInput{
		query: e.queryStr, fileA: e.fA, fileB: e.fB,
		reducers: e.opts.Reducers, splitPoints: e.opts.SplitPoints, maxSkew: e.opts.MaxSkew,
		index: e.opts.Index, want: e.want,
	}, e.dir, m)
}

func setupScanAvg(cfg runConfig, dir string, rec *recorder) (env, error) {
	shape := pick(cfg, []int64{512, 256, 64}, []int64{32, 32, 16})
	splits := pick(cfg, int64(64), int64(8))
	path, err := writeFile(dir, "scan", "temp", shape, datagen.Temperature(cfg.seed))
	if err != nil {
		return nil, err
	}
	q := "avg temp" + fullSlab(shape) + " es {8,8,8}"
	e, err := openLocal(rec, dir, q, path, "", sidr.RunOptions{
		Engine: sidr.SIDR, Reducers: 8, SplitPoints: size(shape) / splits,
	})
	if err != nil {
		return nil, err
	}
	e.info = map[string]any{"query": q, "shape": shape, "points": e.points, "reducers": 8, "splits": splits}
	return e, nil
}

func setupPruneFilter(cfg runConfig, dir string, rec *recorder) (env, error) {
	shape := pick(cfg, []int64{2048, 128, 64}, []int64{128, 16, 16})
	splits := pick(cfg, int64(512), int64(32))
	reducers := pick(cfg, 16, 4)
	// Values are uniform in [0,100) except in one band of rows — 1/16 of
	// the file, at a seeded split-aligned offset — where they reach 1000,
	// so "filter_gt ... param 900" matches only inside the band.
	band := shape[0] / 16
	bandStart := band * ((cfg.seed%13 + 13) % 13)
	base := datagen.EvenKeyed(cfg.seed)
	path, err := writeFile(dir, "band", "v", shape, func(k coords.Coord) float64 {
		if k[0] >= bandStart && k[0] < bandStart+band {
			return 10 * base(k)
		}
		return base(k)
	})
	if err != nil {
		return nil, err
	}
	q := "filter_gt v" + fullSlab(shape) + " es {4,8,8} param 900"
	e, err := openLocal(rec, dir, q, path, "", sidr.RunOptions{
		Engine: sidr.SIDR, Reducers: reducers, SplitPoints: size(shape) / splits,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if e.opts.Index, err = e.dsA.BuildIndex(int(splits)); err != nil {
		return nil, err
	}
	e.buildS = time.Since(start).Seconds()
	e.indexBytes = (&sidx.Index{Vars: []*sidx.VarIndex{e.opts.Index}}).EncodedSize()
	e.info = map[string]any{"query": q, "shape": shape, "points": e.points, "reducers": reducers,
		"splits": splits, "index_blocks": splits, "band_rows": band}
	return e, nil
}

func setupJoinZipf(cfg runConfig, dir string, rec *recorder) (env, error) {
	shape := pick(cfg, []int64{4096, 512}, []int64{256, 64})
	pathA, err := writeFile(dir, "a", "a", shape, datagen.Integers(cfg.seed))
	if err != nil {
		return nil, err
	}
	pathB, err := writeFile(dir, "b", "b", shape, datagen.Zipf(cfg.seed+1, 1.4))
	if err != nil {
		return nil, err
	}
	q := "join jcorr a" + fullSlab(shape) + " es {16,16} with b" + fullSlab(shape) + " es {16,16}"
	e, err := openLocal(rec, dir, q, pathA, pathB, sidr.RunOptions{
		Engine: sidr.SIDR, Reducers: 8, MaxSkew: 16, SplitPoints: size(shape)/8 + 1,
	})
	if err != nil {
		return nil, err
	}
	e.info = map[string]any{"query": q, "shape": shape, "points": e.points, "reducers": 8, "max_skew": 16, "zipf_skew": 1.4}
	return e, nil
}
