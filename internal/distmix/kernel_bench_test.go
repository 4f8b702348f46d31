// Kernel benchmark for the distributed walker flood, isolated in the
// distmix test binary for layout-stable bench.sh snapshots (see the
// note in internal/markov/kernel_bench_test.go).
package distmix_test

import (
	"context"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/distmix"
	"mixtime/internal/graph"
)

// BenchmarkDistMixEstimate measures the distributed walker-flood
// kernel (flat superstep: walker hops + per-range count reduction) at
// a fixed round budget on the DESIGN.md §7 ablation workload: ε is
// set unreachably small so every iteration performs the same
// superstep work regardless of how fast the graph mixes.
func BenchmarkDistMixEstimate(b *testing.B) {
	d, err := datasets.ByName("physics-2")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(0.1, 1)
	opt := distmix.Options{
		Shards:       8,
		WalksPerNode: 16,
		MaxRounds:    64,
		Eps:          1e-12,
		SourceList:   []graph.NodeID{0},
		Seed:         1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := distmix.EstimateMixingTime(context.Background(), g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Messages), "messages")
		}
	}
}
