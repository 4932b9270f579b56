package sim

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/sched"
)

// swapPopulation builds a never-silent 64-agent population of the
// black/white swap component ((0,1) -> (1,0) forever), the steady-state
// load for per-step cost measurements: the run never converges, so a
// single Run(b.N) call times exactly b.N fused-loop interactions.
func swapPopulation(seed int64) *Runner {
	const n = 64
	pr := core.NewRuleTable("swap", n, 2).AddSymmetric(0, 1, 1, 0)
	cfg := core.NewConfig(n, 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = core.State(i % 2)
	}
	return NewRunner(pr, sched.NewRandom(n, false, seed), cfg)
}

// BenchmarkRunnerNilInjector pins the fault layer's nil fast path: a
// runner without an injector must run the fused compiled loop with zero
// allocations per interaction and per-step cost indistinguishable from
// the pre-fault-layer engine (BenchmarkStepThroughput in BENCH_PR2).
func BenchmarkRunnerNilInjector(b *testing.B) {
	run := swapPopulation(1)
	if !run.Compiled() {
		b.Fatal("compiled engine unavailable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	res := run.Run(b.N)
	if res.Converged {
		b.Fatal("swap population converged")
	}
}

// BenchmarkRunnerEmptyInjector measures a runner with an exhausted
// (empty) plan. Such an injector never suppresses, so Run keeps the
// fused loop in one segment, as with no injector.
func BenchmarkRunnerEmptyInjector(b *testing.B) {
	run := swapPopulation(2)
	inj, err := fault.NewInjector(&fault.Plan{}, run.Proto, 2)
	if err != nil {
		b.Fatal(err)
	}
	run.Inject = inj
	b.ReportAllocs()
	b.ResetTimer()
	res := run.Run(b.N)
	if res.Converged {
		b.Fatal("swap population converged")
	}
}

// BenchmarkRunnerCrashSuppression measures steady-state suppression: two
// crashed agents in the swap population force the crashed-pair check on
// every scheduler draw, and every interaction through Step.
func BenchmarkRunnerCrashSuppression(b *testing.B) {
	run := swapPopulation(3)
	plan, err := fault.Parse("@0:crash=2")
	if err != nil {
		b.Fatal(err)
	}
	inj, err := fault.NewInjector(plan, run.Proto, 3)
	if err != nil {
		b.Fatal(err)
	}
	run.Inject = inj
	b.ReportAllocs()
	b.ResetTimer()
	res := run.Run(b.N)
	if res.Converged {
		b.Fatal("swap population converged")
	}
}
