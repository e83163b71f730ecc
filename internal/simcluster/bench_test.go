package simcluster

import (
	"testing"

	"sidr/internal/core"
)

// BenchmarkRun measures a simulated run of a mid-size job — 512 Map and
// 64 Reduce tasks on the default 24-node testbed — job loop included.
func BenchmarkRun(b *testing.B) {
	cfg := DefaultConfig()
	p := plan(b, core.EngineSIDR, 2048, 64)
	loop, job := p.JobConfig(nil, nil), workload(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, loop, job); err != nil {
			b.Fatal(err)
		}
	}
}
