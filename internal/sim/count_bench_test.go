package sim

import (
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/sched"
)

// The BENCH_PR7 suite: per-step cost of the count engine across four
// decades of population size (the flatness claim), the agent engine's
// ladder for comparison (it stops at 10⁶ — an agent array per step is
// exactly what the count engine exists to avoid), and the sampler's
// per-step cost across |Q|.

func benchCountScale(b *testing.B, n int) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = n
	r, err := NewCountRunner(pr, cc, 7)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.ensure(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res := r.run(b.N)
	b.StopTimer()
	if res.Steps != b.N {
		b.Fatalf("ran %d of %d steps (converged early?)", res.Steps, b.N)
	}
}

// BenchmarkCountEngineScale measures per-step cost at N = 10⁴ … 10⁸.
// The acceptance bar: steps/sec within 2× across the whole range (the
// step loop never touches anything N-sized).
func BenchmarkCountEngineScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6, 1e7, 1e8} {
		b.Run(fmt.Sprintf("N=%.0e", float64(n)), func(b *testing.B) {
			benchCountScale(b, n)
		})
	}
}

// BenchmarkAgentEngineScale is the agent engine on the identical
// workload, for the BENCH_PR7 comparison table. It stops at 10⁶: above
// that the agent array and its cache misses are the story (10⁸ agents
// would need an 800 MB slice before the first step runs).
func BenchmarkAgentEngineScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("N=%.0e", float64(n)), func(b *testing.B) {
			pr := churnProto(8)
			cfg := core.NewConfig(n, 0)
			r := NewRunner(pr, sched.NewRandom(n, false, 7), cfg)
			if !r.Compiled() {
				b.Fatal("bench protocol did not compile")
			}
			b.ReportAllocs()
			b.ResetTimer()
			res := r.run(b.N)
			b.StopTimer()
			if res.Steps != b.N {
				b.Fatalf("ran %d of %d steps (converged early?)", res.Steps, b.N)
			}
		})
	}
}

// BenchmarkCountSampler measures per-step cost across state-space
// sizes up to the compiled-table cap at fixed N = 10⁶: the Fenwick
// draw and sync are O(log |Q|).
func BenchmarkCountSampler(b *testing.B) {
	for _, q := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			pr := churnProto(q)
			cc := core.NewCountConfig(q)
			cc.Counts[0] = 1e6
			r, err := NewCountRunner(pr, cc, 7)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.ensure(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			res := r.run(b.N)
			b.StopTimer()
			if res.Steps != b.N {
				b.Fatalf("ran %d of %d steps", res.Steps, b.N)
			}
		})
	}
}
