// Package mapkernel is SIDR's one Map kernel, the body of every Map task,
// single-input and join alike. The extraction shape maps K to K'
// deterministically (§3.2), so the keys a split can reach form a box known
// before a value is read. The kernel reads the split's live region in row
// batches (coords.ReadBatches), folds each innermost line
// (coords.TileWalk.Lines), cut at its tiles' spans, into a dense tile of
// accumulators indexed by the key's cell in the box — a whole line per
// call with its statistic set's loop (kv.LineFoldOf) when every value is
// an observation, run by run for samples, selections and carved tiles —
// and seals the tile in row-major order into one sorted pair per key and
// keyblock, with the §3.2.1 source-count annotation. It folds only the
// statistics the operator declares (ops.Operator.Stats): the others stay
// +0, and the spill does not write them. A key whose every input point
// the split holds can ship finished:
// its one output instead of its samples (Task.Finish). A caller supplies
// data only: a router, a key suffix, the statistics, a value selection
// and a finisher.
package mapkernel

import (
	"context"
	"slices"
	"sync"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/partition"
)

// Task is one Map task: where it reads, how it maps and routes keys, and
// which values it keeps.
type Task struct {
	Reader coords.RecordReader
	// The task reads Split ∩ Input.
	Split, Input coords.Slab
	Extraction   coords.Extraction
	// Space is K'^T, the intermediate keyspace; points mapping outside it
	// are skipped.
	Space coords.Slab
	Route Router
	// Suffix is appended to every key the task emits (a join's side bit);
	// nil appends nothing.
	Suffix []int64
	// Stats are the statistics every pair folds besides Count, its
	// operator's declaration; every other statistic stays +0.
	Stats kv.Stats
	// Samples makes every pair carry the values it kept, in source order,
	// besides their statistics.
	Samples bool
	// Keep, when set, selects the values of a run a key keeps, with
	// ops.Selector's contract. The values it drops are still points the
	// annotation counts. Nil keeps every value.
	Keep func(dst, run []float64) []float64
	// Survivors makes the kept values a filter's survivors (it needs
	// Samples): they are the pair's samples alone, in source order, no
	// statistic is folded over them, and Count stays the points.
	// Otherwise the kept values are the key's observations — a join's
	// present cells — folded as they arrive and counted by Count.
	Survivors bool
	// Finish, when set, is the operator's reduction of one key's samples
	// to its one output, with ops.Finisher's contract (it needs Samples
	// and no Keep). A key whose every point of Input lies in Split is
	// split-local: no other task emits it, so it ships finished, its
	// samples reduced to [Finish(samples)], and Count stays its points.
	Finish func(samples []float64) float64
	// Ctx, when set, is checked before every batch read.
	Ctx context.Context
}

// Router sends each key of a task's box to a keyblock.
type Router struct {
	// Part routes every key that is not a carved tile.
	Part partition.Partitioner
	// Carved, when set, returns the cells of box that are carved tiles,
	// each with its shares, or nil when the box holds none. A share's
	// keyblock receives that share and nothing else.
	Carved func(box coords.Slab) (map[int64][]Share, error)
}

// Share is one keyblock's part of a carved tile (SharesSkew, Afrati et
// al.): the tile's points whose row-major offset inside the tile lies in
// [OffLo, OffHi). A side that is split gives its shares disjoint bounds;
// a side that is replicated gives every share the whole tile.
type Share struct {
	KB           int
	OffLo, OffHi int64
}

// Out is one keyblock's share of a Map task's output: its pairs, sorted
// by key, and the §3.2.1 kv-count annotation — the source points the
// task's fold handed the keyblock's keys, dropped values included.
type Out struct {
	Pairs       []kv.Pair
	SourceCount int64
}

// Scratch is the state a Map task reuses from the last one: the batch
// buffer and its spans, the dense tile, the per-cell point counts, the
// pooled sample arena and the seal's lists. Exec takes one from a
// process-wide pool unless the caller hands it one.
type Scratch struct {
	vals  []float64     // one batch of source values
	spans []coords.Span // the batch's spans
	// Tile holds one accumulator per key of the task's box, by cell, then,
	// when the box holds carved tiles, one per keyblock for its shares.
	// Every accumulator is zero between tasks: the seal zeroes them all,
	// visited or not, because a cell's Samples is a window of a sample
	// arena. Count plus missing is the source points the fold handed an
	// accumulator: its share of the annotation.
	Tile    []kv.Value
	missing []int64 // points Count leaves out: a join's missing cells
	points  []int64 // source points per cell: the sample windows' sizes
	// input is, per cell, the points of the whole input its key has: a
	// key is split-local where this equals points.
	input []int64
	// arena backs the sample windows. It serves task after task until a
	// task drops no value and the pairs take it.
	arena []float64
	total int64       // the points the windows were sized for
	sel   []float64   // a run's kept values, when the task keeps no samples
	ship  []*kv.Value // the accumulators that ship a pair, in key order
	kbOf  []int32     // the keyblock of each, likewise
	keys  []int64     // their keys, suffix included, likewise
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// lineFoldOf picks a task's line fold; a variable so tests can watch it.
var lineFoldOf = kv.LineFoldOf

// Exec runs one Map task with s, or with a pooled Scratch when s is nil.
// It returns the task's output indexed by keyblock and the number of
// source points that mapped into the keyspace.
func Exec(t Task, s *Scratch) ([]Out, int64, error) {
	if s != nil {
		return s.run(&t)
	}
	s = pool.Get().(*Scratch)
	outs, records, err := s.run(&t)
	if err == nil {
		pool.Put(s) // a failed task's tile may hold live cells: it is dropped
	}
	return outs, records, err
}

// run is the kernel. The box makes accumulation a dense tile indexed by
// cell, and the seal a linear walk that meets the keys in row-major order:
// no hash map, no sort. A key's points fold in row-major source order into
// one accumulator per statistic, so outputs are bit-identical to folding
// point by point, and its samples stay in source order.
func (s *Scratch) run(t *Task) ([]Out, int64, error) {
	outs := make([]Out, t.Route.Part.NumKeyblocks())
	live, ok := t.Split.Intersect(t.Input)
	if !ok {
		return outs, 0, nil
	}
	walk, err := t.Extraction.Walk(t.Extraction.KeyBox(live, t.Space))
	if err != nil {
		return nil, 0, err
	}
	box := walk.Box
	var carved map[int64][]Share
	if t.Route.Carved != nil {
		if carved, err = t.Route.Carved(box); err != nil {
			return nil, 0, err
		}
	}
	cells, n := box.Size(), box.Size()
	if carved != nil {
		n += int64(len(outs))
	}
	s.Tile, s.missing = resize(s.Tile, n), resize(s.missing, n)
	if t.Samples {
		s.windows(t, walk, live)
	}

	// The fold is picked once per task: whole lines when every value is an
	// observation of its key, else run by run.
	var records int64
	line := lineFoldOf(t.Stats)
	if t.Keep != nil || t.Samples || carved != nil {
		line = nil
	}
	s.vals, err = coords.ReadBatches(t.Ctx, t.Reader, live, s.vals, func(batch coords.Slab, vals []float64) error {
		spans := walk.Spans(batch, s.spans[:0])
		s.spans = spans
		var points int64 // per line
		for _, sp := range spans {
			points += sp.Hi - sp.Lo
		}
		return walk.Lines(batch, vals, func(base, off int64, vals []float64) error {
			records += points
			if line != nil {
				line(s.Tile, base, vals, spans)
				return nil
			}
			// The two commonest run folds run in line, as add does them,
			// saving a call per run.
			for _, sp := range spans {
				c, run := base+sp.Cell, vals[sp.Lo:sp.Hi]
				switch v := &s.Tile[c]; {
				case carved != nil && carved[c] != nil:
					// A carved tile's run folds into the shares its tile
					// offsets reach.
					o := off + sp.Off
					for _, sh := range carved[c] {
						if a, b := max(o, sh.OffLo), min(o+int64(len(run)), sh.OffHi); a < b {
							s.add(t, cells+int64(sh.KB), run[a-o:b-o])
						}
					}
				case t.Keep == nil:
					v.AddRun(run, t.Stats, t.Samples)
				case t.Survivors:
					v.Count += int64(len(run))
					v.Samples = t.Keep(v.Samples, run)
				default:
					s.add(t, c, run)
				}
			}
			return nil
		})
	})
	if err == nil {
		err = s.seal(t, box, carved, outs)
	}
	if err != nil {
		return nil, 0, err
	}
	return outs, records, nil
}

// resize returns xs with length n, reallocated only when its capacity is
// short. The seal leaves every element zero.
func resize[T any](xs []T, n int64) []T {
	if int64(cap(xs)) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// windows gives every cell's samples a window sized, from the geometry,
// to the points that can reach the key, so the fold never regrows one.
// The windows are carved in cell order from the scratch's arena. If the
// task drops no value they fill it and the pairs take it whole; otherwise
// the seal copies the kept values out into one exact array and the arena
// serves the next task. A task that neither selects nor finishes keys
// cannot drop values, so its arena is a fresh, exactly sized array; a
// selecting or finishing task reuses the last one, grown when short. So
// a task that keeps every sample, a join's dense side included,
// allocates one array of them and copies nothing, and a filter's bytes
// follow its survivors and a finishing task's its unfinished keys. (A dense join side
// that both copied its values and left a pooled arena their size behind
// raised join_zipf's peak RSS by 8 %.)
func (s *Scratch) windows(t *Task, walk coords.TileWalk, live coords.Slab) {
	s.points, s.total = walk.CellPoints(live, s.points)
	if t.Finish != nil {
		s.input, _ = walk.CellPoints(t.Input, s.input)
	}
	if t.Keep == nil && t.Finish == nil || int64(cap(s.arena)) < s.total {
		s.arena = make([]float64, s.total)
	}
	arena := s.arena
	for c, n := range s.points {
		s.Tile[c].Samples = arena[:0:n]
		arena = arena[n:]
	}
}

// add folds one run into accumulator i. Every value of the run is a point
// of the annotation; the selection decides which the key keeps.
func (s *Scratch) add(t *Task, i int64, run []float64) {
	c := &s.Tile[i]
	switch {
	case t.Keep == nil:
		c.AddRun(run, t.Stats, t.Samples)
	case t.Survivors:
		c.Count += int64(len(run))
		c.Samples = t.Keep(slices.Grow(c.Samples, len(run)), run)
	case t.Samples:
		n := len(c.Samples)
		c.Samples = t.Keep(slices.Grow(c.Samples, len(run)), run)
		c.AddRun(c.Samples[n:], t.Stats, false)
		s.missing[i] += int64(len(run) - (len(c.Samples) - n))
	default:
		s.sel = t.Keep(slices.Grow(s.sel[:0], len(run)), run)
		c.AddRun(s.sel, t.Stats, false)
		s.missing[i] += int64(len(run) - len(s.sel))
	}
}

// seal publishes the task's output and zeroes every cell. A split-local
// key's samples are first finished in their window; then each visited
// key adds its points to its keyblock's annotation, and a key that kept
// an observation ships exactly one pair. One odometer walk over the box
// meets the keys in row-major order and routes each, so each keyblock's
// pairs are sorted as they are placed; every carved tile's share then
// ships its own. Pairs and keys are carved from one array each. Unless
// no value was dropped, the kept values are then copied out into one
// array per task, each key's in source order.
func (s *Scratch) seal(t *Task, box coords.Slab, carved map[int64][]Share, outs []Out) error {
	key := box.Corner.Clone()
	counts := make([]int, len(outs))
	kept := 0
	handed := func(i int) int64 { return s.Tile[i].Count + s.missing[i] }
	visit := func(i, kb int, key coords.Coord) {
		c := &s.Tile[i]
		outs[kb].SourceCount += handed(i)
		if c.Count > 0 {
			s.ship, s.kbOf = append(s.ship, c), append(s.kbOf, int32(kb))
			s.keys = append(append(s.keys, key...), t.Suffix...)
			counts[kb]++
			kept += len(c.Samples)
		}
	}
	cells := int(box.Size())
	for i := range cells {
		if handed(i) > 0 {
			if c := &s.Tile[i]; t.Finish != nil && s.points[i] == s.input[i] {
				c.Samples = append(c.Samples[:0], t.Finish(c.Samples))
			}
			kb, err := t.Route.Part.Partition(key)
			if err != nil {
				return err
			}
			visit(i, kb, key)
		}
		box.Advance(key)
	}
	for c, list := range carved {
		tile, err := box.Delinearize(c)
		if err != nil {
			return err
		}
		for _, sh := range list {
			if handed(cells+sh.KB) > 0 {
				visit(cells+sh.KB, sh.KB, tile)
			}
		}
	}

	pairs, keys := make([]kv.Pair, len(s.ship)), slices.Clone(s.keys)
	for kb, at := 0, 0; kb < len(counts); kb++ {
		if n := counts[kb]; n > 0 {
			outs[kb].Pairs = pairs[at : at : at+n]
			at += n
		}
	}
	var arena []float64 // non-nil even when empty: a filter's pairs always carry samples
	if t.Samples {
		if int64(kept) == s.total {
			s.arena = nil // no value was dropped: the pairs take the arena
		} else {
			arena = make([]float64, kept)
		}
	}
	width := box.Rank() + len(t.Suffix)
	for i, c := range s.ship {
		v := *c
		if arena != nil {
			n := len(v.Samples)
			v.Samples = arena[:n:n]
			arena = arena[n:]
			copy(v.Samples, c.Samples)
		}
		out := &outs[s.kbOf[i]]
		out.Pairs = append(out.Pairs, kv.Pair{Key: keys[:width:width], Value: v})
		keys = keys[width:]
	}
	clear(s.ship)
	s.ship, s.kbOf, s.keys = s.ship[:0], s.kbOf[:0], s.keys[:0]
	clear(s.Tile)
	clear(s.missing)
	return nil
}
