package sim

import (
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// The BENCH_PR7 suite: per-interaction cost of the count engine across
// four decades of population size (the flatness claim), the agent
// engine's ladder for comparison (it stops at 10⁶ — an agent array per
// step is exactly what the count engine exists to avoid), and the
// count engine's cost across |Q|. Count runs start balanced, N/|Q|
// agents per state: the engine pays per non-null interaction, and from
// an all-zero start the non-null share — so ns/op — would depend on how
// far b.N lets the run drift.

// balancedCount spreads n agents evenly over q states.
func balancedCount(q, n int) *core.CountConfig {
	cc := core.NewCountConfig(q)
	for s := range cc.Counts {
		cc.Counts[s] = n / q
		if s < n%q {
			cc.Counts[s]++
		}
	}
	return cc
}

func benchCountScale(b *testing.B, n int, o *obs.Observer) {
	r, err := NewCountRunner(churnProto(8), balancedCount(8, n), 7)
	if err != nil {
		b.Fatal(err)
	}
	r.Obs = o
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

// BenchmarkCountEngineScale measures per-interaction cost at N = 10⁴ …
// 10⁸. The acceptance bar: interactions/sec within 2× across the whole
// range (the run loop never touches anything N-sized). The observed
// rung repeats N = 10⁶ with an observer journaling to obs.Discard, as
// every grid cell runs.
func BenchmarkCountEngineScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6, 1e7, 1e8} {
		b.Run(fmt.Sprintf("N=%.0e", float64(n)), func(b *testing.B) {
			benchCountScale(b, n, nil)
		})
	}
	b.Run("observed-N=1e+06", func(b *testing.B) {
		benchCountScale(b, 1e6, obs.NewObserver(1e6, false, obs.ObserverOptions{Sink: obs.Discard, NoPairs: true}))
	})
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

// BenchmarkCountSampler measures per-interaction cost across
// state-space sizes up to the compiled-table cap at fixed N = 10⁶: the
// initiator search scans O(√|Q|) block and row sums, each reweigh is
// O(1), and the non-null share of a balanced churn configuration is
// about 1/|Q|.
func BenchmarkCountSampler(b *testing.B) {
	for _, q := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			r, err := NewCountRunner(churnProto(q), balancedCount(q, 1e6), 7)
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
