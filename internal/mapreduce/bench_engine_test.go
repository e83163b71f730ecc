package mapreduce

import (
	"testing"

	"sidr/internal/depgraph"
	"sidr/internal/partition"
	"sidr/internal/query"
)

// benchConfig assembles a SIDR-engine job over the synthetic dataset for
// the end-to-end engine benchmark. Kept apart from buildJob so the
// benchmark does not depend on *testing.T helpers.
func benchConfig(b *testing.B, qs string, reducers int) Config {
	b.Helper()
	q, err := query.Parse(qs)
	if err != nil {
		b.Fatal(err)
	}
	splits, err := GenerateSplits(q.Input, q.Input.Size()/7+1, nil, "", 8)
	if err != nil {
		b.Fatal(err)
	}
	space, err := q.IntermediateSpace()
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.NewPartitionPlus(space, reducers, 0)
	if err != nil {
		b.Fatal(err)
	}
	g, err := depgraph.Build(q, Slabs(splits), part)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Query:          q,
		Splits:         splits,
		Reader:         &FuncReader{Fn: synthValue},
		Part:           part,
		Graph:          g,
		Barrier:        DependencyBarrier,
		ValidateCounts: true,
		Combine:        true,
	}
}

// BenchmarkEngine measures a full Run of the SIDR engine (dependency
// barrier, count validation, combining) over a 256×64 synthetic input.
func BenchmarkEngine(b *testing.B) {
	cfg := benchConfig(b, "avg temp[0,0 : 256,64] es {8,8}", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
