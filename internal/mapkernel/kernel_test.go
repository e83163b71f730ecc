package mapkernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/kv"
	"sidr/internal/partition"
)

// field is a full-mantissa pseudo-random value per coordinate (so a
// reassociated sum changes low bits), with occasional NaN, ±Inf and -0.
type field struct{}

func (field) ReadSlabInto(slab coords.Slab, dst []float64) ([]float64, error) {
	dst = dst[:0]
	slab.Each(func(k coords.Coord) bool {
		h := uint64(0x9e3779b97f4a7c15)
		for _, x := range k {
			h ^= uint64(x) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
		}
		switch h % 97 {
		case 0:
			dst = append(dst, math.NaN())
		case 1:
			dst = append(dst, math.Inf(-1))
		case 2:
			dst = append(dst, math.Copysign(0, -1))
		default:
			dst = append(dst, (float64(h>>11)/float64(1<<53)-0.5)*1e3)
		}
		return true
	})
	return dst, nil
}

type lineFold = func(tile []kv.Value, base int64, line []float64, spans []coords.Span)

// TestLineFoldsMatchRunPath: over random tasks — rank 1–4, stride gaps,
// off-grid corners, partial trailing tiles, keyspaces that clip the box,
// splits that cut tiles, lines a batch cuts — every statistic set's line
// fold emits what folding the same task run by run emits, pair for pair
// by Float64bits and annotation for annotation, and every line fold is
// reached.
func TestLineFoldsMatchRunPath(t *testing.T) {
	defer func(f func(kv.Stats) lineFold) { lineFoldOf = f }(lineFoldOf)
	reached := make(map[kv.Stats]int)
	counting := func(st kv.Stats) lineFold {
		fold := kv.LineFoldOf(st)
		return func(tile []kv.Value, base int64, line []float64, spans []coords.Span) {
			reached[st]++
			fold(tile, base, line, spans)
		}
	}
	runByRun := func(kv.Stats) lineFold { return nil }

	rng := rand.New(rand.NewSource(45))
	for iter := 0; iter < 400; iter++ {
		task, ok := randomTask(rng, iter)
		if !ok {
			continue
		}
		label := fmt.Sprintf("stats %03b es %v input %v split %v space %v", task.Stats, task.Extraction, task.Input, task.Split, task.Space)
		lineFoldOf = counting
		got, gotRecords, err := Exec(task, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lineFoldOf = runByRun
		want, wantRecords, err := Exec(task, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if gotRecords != wantRecords {
			t.Fatalf("%s: %d records by lines, %d by runs", label, gotRecords, wantRecords)
		}
		for kb := range want {
			if !sameOut(got[kb], want[kb]) {
				t.Fatalf("%s kb %d:\n lines %s\n runs  %s", label, kb, outBits(got[kb]), outBits(want[kb]))
			}
		}
	}
	for st := kv.Stats(0); st < 8; st++ {
		if reached[st] == 0 {
			t.Errorf("no line folded under stats %03b", st)
		}
	}
}

// randomTask draws one task; its statistic set cycles with iter, and
// every tenth reads a rank-1 input longer than a batch.
func randomTask(rng *rand.Rand, iter int) (Task, bool) {
	rank := 1 + rng.Intn(4)
	es, stride := make(coords.Shape, rank), make(coords.Shape, rank)
	input := coords.Slab{Corner: make(coords.Coord, rank), Shape: make(coords.Shape, rank)}
	for d := 0; d < rank; d++ {
		es[d] = 1 + rng.Int63n(5)
		stride[d] = es[d] + rng.Int63n(3)
		input.Corner[d] = rng.Int63n(7)
		input.Shape[d] = 1 + rng.Int63n(10)
	}
	if iter%10 == 0 {
		rank, es, stride = 1, es[:1], stride[:1]
		input = coords.Slab{Corner: input.Corner[:1], Shape: coords.Shape{coords.BatchPoints + 1 + rng.Int63n(5000)}}
	}
	e, err := coords.NewExtraction(es, stride)
	if err != nil {
		panic(err)
	}
	space, err := e.TileRange(input)
	if err != nil {
		return Task{}, false // the input sits in stride gaps
	}
	for d := 0; d < rank; d++ { // drop partial tiles, or clip the keyspace
		if space.Shape[d] > 1 && rng.Intn(3) == 0 {
			space.Corner[d]++
			space.Shape[d]--
		}
	}
	split := input.Clone()
	split.Corner[0] += rng.Int63n(input.Shape[0])
	split.Shape[0] = 1 + rng.Int63n(input.Shape[0]+2)
	var part partition.Partitioner
	if rng.Intn(2) == 0 {
		part, err = partition.NewModulo(1+rng.Intn(4), partition.TileIndexEncoding{Space: space})
	} else {
		part, err = partition.NewPartitionPlus(space, 1+rng.Intn(4), 0, nil)
	}
	if err != nil {
		panic(err)
	}
	return Task{Reader: field{}, Split: split, Input: input, Extraction: e, Space: space,
		Route: Router{Part: part}, Stats: kv.Stats(iter % 8)}, true
}

// sameOut reports whether two outputs agree, every statistic by its bits.
func sameOut(a, b Out) bool {
	if a.SourceCount != b.SourceCount || len(a.Pairs) != len(b.Pairs) {
		return false
	}
	for i, p := range a.Pairs {
		v, w := p.Value, b.Pairs[i].Value
		if !p.Key.Equal(b.Pairs[i].Key) || v.Count != w.Count || len(v.Samples)+len(w.Samples) != 0 ||
			math.Float64bits(v.Sum) != math.Float64bits(w.Sum) || math.Float64bits(v.SumSq) != math.Float64bits(w.SumSq) ||
			math.Float64bits(v.Min) != math.Float64bits(w.Min) || math.Float64bits(v.Max) != math.Float64bits(w.Max) {
			return false
		}
	}
	return true
}

// outBits renders a keyblock's output with every statistic by its bits.
func outBits(o Out) string {
	s := fmt.Sprintf("source %d:", o.SourceCount)
	for _, p := range o.Pairs {
		v := p.Value
		s += fmt.Sprintf(" %v{%x %x %x %x n%d s%d}", p.Key, math.Float64bits(v.Sum), math.Float64bits(v.SumSq),
			math.Float64bits(v.Min), math.Float64bits(v.Max), v.Count, len(v.Samples))
	}
	return s
}
