package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sidr"
	"sidr/internal/coords"
	"sidr/internal/core"
	"sidr/internal/join"
	"sidr/internal/kv"
	"sidr/internal/mapreduce"
	"sidr/internal/ncfile"
	"sidr/internal/ops"
	"sidr/internal/query"
	"sidr/internal/sidx"
	"sidr/internal/skew"
	"sidr/internal/spillstore"
	"sidr/internal/wire"
)

// replayInput names one query and the inputs the program ran it on.
type replayInput struct {
	query       string
	fileA       *ncfile.File
	fileB       *ncfile.File // joins only
	reducers    int
	splitPoints int64
	maxSkew     int64
	index       *sidx.VarIndex
	// shuffle replays the clustered data path between Map and Reduce —
	// kv encode, pack write, pack open, kv decode. In-process runs hand
	// pairs over in memory, so for them these layers report nothing.
	shuffle bool
	want    uint64
}

// replay is the layer replay: after the timed loop it calls each layer's
// public function serially on one query's inputs, each call inside a
// span, and writes the per-layer busy seconds (one query's worth) and
// exact counts into m. The replayed output must hash equal to the
// reference, which proves the replay did the work the query does.
func replay(rec *recorder, qid int64, in replayInput, dir string, m map[string]float64) error {
	root := rec.reserve()
	t0 := time.Now()
	defer func() { rec.put(root, 0, qid, "replay", t0, time.Now()) }()
	// layer runs fn in a span under the replay root and adds its busy
	// seconds to metric.
	layer := func(name, metric string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		rec.put(rec.reserve(), root, qid, name, start, end)
		if metric != "" {
			m[metric] += end.Sub(start).Seconds()
		}
		return err
	}

	var q *query.Query
	if err := layer("query.parse", "query.parse_s", func() (err error) {
		q, err = query.Parse(in.query)
		return err
	}); err != nil {
		return err
	}
	opts := core.Options{Reducers: in.reducers, SplitPoints: in.splitPoints, MaxSkew: in.maxSkew, Index: in.index}
	readerA := &mapreduce.FileReader{File: in.fileA, Var: q.Variable}
	var readerB *mapreduce.FileReader
	if q.Join {
		readerB = &mapreduce.FileReader{File: in.fileB, Var: q.Variable2}
		opts.JoinSamplerA, opts.JoinSamplerB = readerA, readerB
		splitsA, err := mapreduce.GenerateSplits(q.Input, in.splitPoints, nil, "", 8)
		if err != nil {
			return err
		}
		splitsB, err := mapreduce.GenerateSplits(q.Input2, in.splitPoints, nil, "", 8)
		if err != nil {
			return err
		}
		if err := layer("join.build", "join.plan_s", func() error {
			_, err := join.Build(q, join.Options{Reducers: in.reducers, MaxSkew: in.maxSkew},
				readerA, readerB, mapreduce.Slabs(splitsA), mapreduce.Slabs(splitsB))
			return err
		}); err != nil {
			return err
		}
	}
	var plan *core.Plan
	if err := layer("core.new_plan", "core.plan_s", func() (err error) {
		plan, err = core.NewPlan(q, core.EngineSIDR, opts)
		return err
	}); err != nil {
		return err
	}
	if in.index != nil {
		if err := layer("sidx.prune_splits", "sidx.probe_s", func() error {
			keep, total, pruned, err := core.PruneSplits(q, in.splitPoints, in.index)
			if err == nil && pruned && total > 0 {
				m["sidx.splits_kept_ratio"] = float64(len(keep)) / float64(total)
			}
			return err
		}); err != nil {
			return err
		}
	}
	nkb := plan.Part.NumKeyblocks()
	m["core.splits"] = float64(len(plan.Splits))
	m["core.keyblocks"] = float64(nkb)
	m["core.deps_total"] = float64(plan.Graph.SIDRConnections())
	loads := plan.Graph.ExpectedCount
	if plan.Join != nil {
		loads = plan.Join.EstLoads
		m["join.keyblocks"] = float64(nkb)
	}
	sk := skew.Summarize(loads)
	m["skew.max_over_mean"] = sk.MaxOverMean
	m["skew.starved"] = float64(sk.Starved)

	// side resolves a split to its file, variable, reader and input slab.
	side := func(i int) (*ncfile.File, string, *mapreduce.FileReader, coords.Slab, int) {
		if plan.Join != nil && plan.Join.Side(i) == 1 {
			return in.fileB, q.Variable2, readerB, q.Input2, 1
		}
		return in.fileA, q.Variable, readerA, q.Input, 0
	}

	// The read pass: every surviving split's rows through ReadSlab, the
	// same row-at-a-time calls the record reader makes.
	var readValues, readCalls int
	for i, sp := range plan.Splits {
		f, v, _, input, _ := side(i)
		live, ok := sp.Slab.Intersect(input)
		if !ok {
			continue
		}
		rows, err := live.SplitDim(0, 1)
		if err != nil {
			return err
		}
		if err := layer("ncfile.read_slab", "ncfile.read_s", func() error {
			for _, row := range rows {
				vals, err := f.ReadSlab(v, row)
				if err != nil {
					return err
				}
				readValues += len(vals)
			}
			return nil
		}); err != nil {
			return err
		}
		readCalls += len(rows)
	}
	m["ncfile.read_bytes"] = float64(8 * readValues)
	m["ncfile.read_calls"] = float64(readCalls)

	// The Map pass: one ExecMap per split. Its time includes the reads it
	// does itself, so the kernel is the difference to the read pass.
	outs := make([][]mapreduce.MapOut, len(plan.Splits))
	op, _ := q.Op() // nil for joins, which carry their operator in the plan
	mapMetric, mapSpan := "mapreduce.map_kernel_s", "mapreduce.exec_map"
	if plan.Join != nil {
		mapSpan = "join.exec_map"
	}
	for i, sp := range plan.Splits {
		_, _, reader, _, sd := side(i)
		var records int64
		if err := layer(mapSpan, mapMetric, func() (err error) {
			if plan.Join != nil {
				var jo []join.MapOut
				jo, records, err = join.ExecMap(plan.Join, sd, reader, sp.Slab, nil)
				outs[i] = make([]mapreduce.MapOut, len(jo))
				for kb, o := range jo {
					outs[i][kb] = mapreduce.MapOut{Pairs: o.Pairs, SourceCount: o.SourceCount}
				}
				return err
			}
			outs[i], records, err = mapreduce.ExecMap(mapreduce.MapInput{
				Query: q, Op: op, Space: plan.Space, Part: plan.Part, Reader: reader, Combine: true,
			}, sp)
			return err
		}); err != nil {
			return err
		}
		m["mapreduce.map_records"] += float64(records)
		for _, o := range outs[i] {
			m["mapreduce.map_pairs_out"] += float64(len(o.Pairs))
		}
	}
	if plan.Join != nil {
		m["join.map_s"] = m[mapMetric]
	}
	m[mapMetric] -= m["ncfile.read_s"]

	// Between Map and Reduce: each keyblock's streams in I_ℓ order, either
	// straight from memory or through the spill codec and pack store.
	streams := make([][][]kv.Pair, nkb)
	if in.shuffle {
		rank := plan.Space.Shape.Rank()
		if plan.Join != nil {
			rank = plan.Join.SpillRank()
		}
		store, err := spillstore.New(dir)
		if err != nil {
			return err
		}
		defer store.Close()
		for i := range plan.Splits {
			pw, err := store.Begin("replay", i, 0)
			if err != nil {
				return err
			}
			for _, kb := range plan.Graph.SplitToKB[i] {
				var buf bytes.Buffer
				if err := layer("kv.write_spill_v3", "kv.encode_s", func() error {
					return kv.WriteSpillV3(&buf, rank, outs[i][kb].SourceCount, outs[i][kb].Pairs, kv.V3Options{})
				}); err != nil {
					pw.Abort()
					return err
				}
				m["kv.encode_bytes"] += float64(buf.Len())
				if err := layer("spillstore.append", "spillstore.write_s", func() error {
					_, err := pw.Append(kb, func(w io.Writer) error {
						_, err := w.Write(buf.Bytes())
						return err
					})
					return err
				}); err != nil {
					pw.Abort()
					return err
				}
			}
			if err := layer("spillstore.commit", "spillstore.write_s", pw.Commit); err != nil {
				return err
			}
		}
		for kb := 0; kb < nkb; kb++ {
			for _, s := range plan.Graph.KBToSplits[kb] {
				var sr *io.SectionReader
				if err := layer("spillstore.open", "spillstore.open_s", func() (err error) {
					sr, _, err = store.Open("replay", s, 0, kb)
					return err
				}); err != nil {
					return err
				}
				m["spillstore.pack_bytes"] += float64(sr.Size())
				if err := layer("kv.read_spill", "kv.decode_s", func() error {
					_, pairs, err := kv.ReadSpill(sr)
					streams[kb] = append(streams[kb], pairs)
					return err
				}); err != nil {
					return err
				}
			}
		}
		if r := m["mapreduce.map_records"]; r > 0 {
			m["kv.bytes_per_point"] = m["kv.encode_bytes"] / r
		}
	} else {
		for kb := 0; kb < nkb; kb++ {
			for _, s := range plan.Graph.KBToSplits[kb] {
				streams[kb] = append(streams[kb], outs[s][kb].Pairs)
			}
		}
	}

	// The Reduce pass: merge, then the operator per key.
	results := make([]keyblockOut, nkb)
	params := q.Params()
	for kb := 0; kb < nkb; kb++ {
		var merged []kv.Pair
		_ = layer("kv.merge_sorted", "kv.merge_s", func() error {
			merged = kv.MergeSorted(streams[kb])
			return nil
		})
		if plan.Join != nil {
			_ = layer("join.reduce", "join.reduce_s", func() error {
				results[kb].keys, results[kb].values = join.Reduce(plan.Join, kb, merged)
				return nil
			})
			continue
		}
		_ = layer("ops.apply", "ops.apply_s", func() error {
			for _, p := range merged {
				vals := op.Apply(p.Value, params...)
				if len(vals) == 0 && op.Kind() == ops.Filter {
					continue // a filter key with no survivors is omitted
				}
				results[kb].keys = append(results[kb].keys, p.Key)
				results[kb].values = append(results[kb].values, vals)
			}
			return nil
		})
	}

	keys, values, err := assemble(plan.Join, results)
	if err != nil {
		return err
	}
	for _, v := range values {
		m["ops.values_out"] += float64(len(v))
	}
	if !verify(keys, values, in.want) {
		return fmt.Errorf("replay of %q differs from the reference", in.query)
	}

	return layer("wire.encode", "wire.encode_s", func() error {
		b, err := json.Marshal(wire.FromResult(&sidr.Result{Keys: keys, Values: values}))
		m["wire.encode_bytes"] = float64(len(b))
		return err
	})
}
