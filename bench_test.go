// Package popnaming's root benchmark harness regenerates the experiments
// of the paper reproduction (see DESIGN.md's experiment index E1-E22 and
// EXPERIMENTS.md for recorded outcomes). Each benchmark's reported ns/op
// is the cost of one full experiment run; benchmarks that reproduce
// convergence-cost figures additionally report interactions/op, the
// paper-relevant metric.
//
// Run everything:
//
//	go test -bench=. -benchmem
package popnaming

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/experiments"
	"popnaming/internal/explore"
	"popnaming/internal/grid"
	"popnaming/internal/impossible"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
	"popnaming/internal/search"
	"popnaming/internal/sim"
)

// benchConverge runs one protocol instance to convergence per iteration
// and reports interactions/op.
func benchConverge(b *testing.B, mk func(seed int64) (*sim.Runner, *core.Config)) {
	b.Helper()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		run, cfg := mk(int64(i))
		res := run.Run(200_000_000)
		if !res.Converged {
			b.Fatalf("did not converge: %s", res)
		}
		if !cfg.ValidNaming() {
			b.Fatalf("invalid naming: %s", cfg)
		}
		totalSteps += res.Steps
	}
	b.ReportMetric(float64(totalSteps)/float64(b.N), "interactions/op")
}

// BenchmarkE01Table1 regenerates the paper's Table 1 (all nine cells,
// simulation + model checks + exhaustive search).
func BenchmarkE01Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Table1(experiments.Table1Options{
			P: 5, ModelCheckP: 3, Budget: 10_000_000, Seed: int64(i),
		})
		for _, c := range cells {
			if !c.OK {
				b.Fatalf("cell (%s, %s) disagrees", c.Leader, c.Rules)
			}
		}
	}
}

// BenchmarkE02Asymmetric: Prop 12 protocol, arbitrary init, weakly fair
// round-robin, leaderless.
func BenchmarkE02Asymmetric(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewAsymmetric(n)
			benchConverge(b, func(seed int64) (*sim.Runner, *core.Config) {
				cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(seed)))
				return sim.NewRunner(pr, sched.NewRoundRobin(n, false), cfg), cfg
			})
		})
	}
}

// BenchmarkE03SymGlobal: Prop 13 protocol, arbitrary init, random
// (globally fair) scheduling, leaderless, N > 2.
func BenchmarkE03SymGlobal(b *testing.B) {
	// Tight instances (N = P): the blank-state walk must land on an
	// exact permutation, so cost grows steeply with N (see the slack
	// experiment E15 in EXPERIMENTS.md).
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewSymGlobal(n)
			benchConverge(b, func(seed int64) (*sim.Runner, *core.Config) {
				cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(seed)))
				return sim.NewRunner(pr, sched.NewRandom(n, false, seed), cfg), cfg
			})
		})
	}
}

// BenchmarkE04InitLeader: Prop 14 protocol, uniform init, weakly fair.
func BenchmarkE04InitLeader(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewInitLeader(n)
			benchConverge(b, func(seed int64) (*sim.Runner, *core.Config) {
				cfg := sim.UniformConfig(pr, n)
				return sim.NewRunner(pr, sched.NewRandom(n, true, seed), cfg), cfg
			})
		})
	}
}

// BenchmarkE05Counting: Protocol 1 counting N < P agents from arbitrary
// states (Theorem 15), weakly fair.
func BenchmarkE05Counting(b *testing.B) {
	// The U* pointer walk makes convergence cost grow like 2^N (see
	// EXPERIMENTS.md): space optimality is paid for in time.
	for _, n := range []int{7, 11, 15} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := counting.New(n + 1)
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(int64(i))))
				res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(200_000_000)
				if !res.Converged || pr.Count(cfg) != n {
					b.Fatalf("bad count: %s", res)
				}
				totalSteps += res.Steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkE06SelfStab: Protocol 2, arbitrary leader AND mobile states,
// weakly fair (Prop 16).
func BenchmarkE06SelfStab(b *testing.B) {
	// Exponential-in-N convergence cost, like Protocol 1 (same walk).
	for _, n := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewSelfStab(n)
			benchConverge(b, func(seed int64) (*sim.Runner, *core.Config) {
				cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(seed)))
				return sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg), cfg
			})
		})
	}
}

// BenchmarkE07GlobalPFull: Protocol 3 at N = P under random scheduling
// (Prop 17). The cost explodes with P — the quantitative face of "this
// cell needs global fairness".
func BenchmarkE07GlobalPFull(b *testing.B) {
	for _, p := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("P=N=%d", p), func(b *testing.B) {
			pr := naming.NewGlobalP(p)
			benchConverge(b, func(seed int64) (*sim.Runner, *core.Config) {
				cfg := sim.ArbitraryConfig(pr, p, rand.New(rand.NewSource(seed)))
				return sim.NewRunner(pr, sched.NewRandom(p, true, seed), cfg), cfg
			})
		})
	}
}

// BenchmarkE08Prop1Lockstep: the Proposition 1 adversary holding a
// symmetric leaderless protocol in lockstep across full weakly fair
// pair-covering cycles.
func BenchmarkE08Prop1Lockstep(b *testing.B) {
	pr := naming.NewSymGlobal(8)
	for i := 0; i < b.N; i++ {
		rep := impossible.Lockstep(pr, 8, 0, 50)
		if !rep.AlwaysUniform || rep.Final.ValidNaming() {
			b.Fatalf("adversary failed: %s", rep)
		}
	}
}

// BenchmarkE09Prop2Search: exhaustive search over all symmetric
// leaderless protocols (Prop 2 lower bound).
func BenchmarkE09Prop2Search(b *testing.B) {
	b.Run("q=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := search.SymmetricNaming(2, []int{2}, search.Weak, search.BestUniform); len(r.Survivors) != 0 {
				b.Fatal("unexpected survivor")
			}
		}
	})
	b.Run("q=3-arbitrary-global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := search.SymmetricNaming(3, []int{3}, search.Global, search.Arbitrary); len(r.Survivors) != 0 {
				b.Fatal("unexpected survivor")
			}
		}
	})
}

// BenchmarkE10Thm11Eclipse: the hidden-agent construction stranding the
// P-state substrate at N = P.
func BenchmarkE10Thm11Eclipse(b *testing.B) {
	const p = 5
	pr := counting.New(p)
	visible := make([]core.State, p-1)
	for i := 0; i < b.N; i++ {
		stuck := false
		for seed := int64(0); seed < 12 && !stuck; seed++ {
			rep := impossible.Eclipse(pr, visible, 0, 1, seed+int64(i)*100, 4_000_000)
			stuck = rep.StuckSilent
		}
		if !stuck {
			b.Fatal("Theorem 11 phenomenon not reproduced")
		}
	}
}

// BenchmarkE11FairnessSeparation: exhaustive weak-vs-global separation
// on Protocol 3 at N = P = 3, including lasso extraction and replay.
func BenchmarkE11FairnessSeparation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.FairnessSeparation(3, int64(i))
		if !res.GlobalConverges || !res.WeakFails || !res.ReplayNonConverging {
			b.Fatalf("separation failed: %+v", res)
		}
	}
}

// benchPaperGrid runs one checked-in paper grid end to end through the
// campaign pipeline per iteration, and fails on any failed cell,
// unconverged trial or failed fault epoch.
func benchPaperGrid(b *testing.B, name string) {
	f, err := os.Open(filepath.Join("examples", "grids", "paper", name+".json"))
	if err != nil {
		b.Fatal(err)
	}
	sp, err := grid.Parse(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cp := &grid.Campaign{Spec: sp, Runner: grid.LocalRunner{}, Out: b.TempDir()}
		res, err := cp.Execute(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) > 0 {
			b.Fatalf("cell %s failed: %v", res.Failed[0].Cell.ID(), res.Failed[0].Err)
		}
		for _, cs := range res.Stats {
			if cs.Converged != cs.Trials {
				b.Fatalf("cell %s: %d/%d trials converged", cs.Cell.ID(), cs.Converged, cs.Trials)
			}
			for _, e := range cs.Epochs {
				if e.Failures > 0 {
					b.Fatalf("cell %s epoch %d: %d failures", cs.Cell.ID(), e.Epoch, e.Failures)
				}
			}
		}
	}
}

// BenchmarkE12Sweep: the E12 convergence-cost curves of the polynomial
// protocols (examples/grids/paper/e12-poly.json) per iteration.
func BenchmarkE12Sweep(b *testing.B) { benchPaperGrid(b, "e12-poly") }

// BenchmarkE13Recovery: corruption/re-convergence for Protocol 2,
// leader and k of N agents corrupted at convergence
// (examples/grids/paper/e13-selfstab.json).
func BenchmarkE13Recovery(b *testing.B) { benchPaperGrid(b, "e13-selfstab") }

// BenchmarkE14UStarAblation: exhaustive U*-vs-naive counting check.
func BenchmarkE14UStarAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.UStarAblation(3)
		if !res.UStarOK || res.NaiveOK {
			b.Fatalf("ablation outcome changed: %+v", res)
		}
	}
}

// --- Engine microbenchmarks -------------------------------------------

// BenchmarkStepThroughput measures raw interactions per second of the
// simulation engine (Protocol 2, N = 64) through the default compiled
// path: batched scheduler draw, transition-table lookup, census update.
func BenchmarkStepThroughput(b *testing.B) {
	const n = 64
	pr := naming.NewSelfStab(n)
	cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(1)))
	run := sim.NewRunner(pr, sched.NewRandom(n, true, 1), cfg)
	if !run.Compiled() {
		b.Fatal("compiled engine unavailable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Step()
	}
}

// BenchmarkStepThroughputInterp is BenchmarkStepThroughput forced onto
// the interface-dispatch path, preserving the pre-compilation baseline
// for before/after comparison.
func BenchmarkStepThroughputInterp(b *testing.B) {
	const n = 64
	pr := naming.NewSelfStab(n)
	cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(1)))
	run := sim.NewRunner(pr, sched.NewRandom(n, true, 1), cfg)
	run.Interpret = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Step()
	}
}

// BenchmarkRunConverge measures one full convergence through the fused
// Run loop and reports interactions/op. It uses Prop 12 (asymmetric
// naming, polynomial convergence) at N = 32 — the BST-based protocols
// converge in time exponential in N and are benchmarked at small N by
// the experiment benchmarks instead.
func BenchmarkRunConverge(b *testing.B) {
	const n = 32
	pr := naming.NewAsymmetric(n)
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		cfg := sim.ArbitraryConfig(pr, n, rand.New(rand.NewSource(int64(i))))
		res := sim.NewRunner(pr, sched.NewRandom(n, false, int64(i)), cfg).Run(200_000_000)
		if !res.Converged {
			b.Fatalf("did not converge: %s", res)
		}
		totalSteps += res.Steps
	}
	b.ReportMetric(float64(totalSteps)/float64(b.N), "interactions/op")
}

// BenchmarkSilenceCheck measures the terminal-configuration test as the
// runner performs it: the census/activePairs counter check of the
// compiled engine (O(1) on the mobile side) on an already-named
// population. BenchmarkSilenceCheckInterp keeps the O(n²) interface
// scan it replaced.
func BenchmarkSilenceCheck(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewAsymmetric(n)
			cfg := core.NewConfig(n, 0)
			for i := range cfg.Mobile {
				cfg.Mobile[i] = core.State(i)
			}
			run := sim.NewRunner(pr, sched.NewRandom(n, false, 1), cfg)
			if !run.Compiled() {
				b.Fatal("compiled engine unavailable")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !run.Silent() {
					b.Fatal("should be silent")
				}
			}
		})
	}
}

// BenchmarkSilenceCheckInterp measures the O(n²) interface-dispatch
// terminal-configuration scan (the pre-census baseline).
func BenchmarkSilenceCheckInterp(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pr := naming.NewAsymmetric(n)
			cfg := core.NewConfig(n, 0)
			for i := range cfg.Mobile {
				cfg.Mobile[i] = core.State(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !core.Silent(pr, cfg) {
					b.Fatal("should be silent")
				}
			}
		})
	}
}

// BenchmarkGraphBuild measures model-checker state-space construction
// (Protocol 3 at P = N = 3, all starts).
func BenchmarkGraphBuild(b *testing.B) {
	pr := naming.NewGlobalP(3)
	var starts []*core.Config
	for a := 0; a < 3; a++ {
		for bb := 0; bb < 3; bb++ {
			for c := 0; c < 3; c++ {
				starts = append(starts,
					core.NewConfigStates(core.State(a), core.State(bb), core.State(c)).
						WithLeader(pr.InitLeader()))
			}
		}
	}
	for i := 0; i < b.N; i++ {
		g, err := explore.Build(pr, starts, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if v := g.CheckGlobal(explore.Naming); !v.OK {
			b.Fatal(v)
		}
	}
}

// BenchmarkE15Slack: time price of exact space optimality — fixed N,
// growing state budget P (examples/grids/paper/e15-symglobal.json).
func BenchmarkE15Slack(b *testing.B) { benchPaperGrid(b, "e15-symglobal") }

// BenchmarkE16ResetAblation: exhaustive check of Protocol 2's reset line.
func BenchmarkE16ResetAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.ResetAblation(2)
		if !res.WithResetOK || !res.NoResetInitializedOK || res.NoResetArbitraryOK {
			b.Fatalf("ablation outcome changed: %+v", res)
		}
	}
}

// BenchmarkE17ExactTimes: exact expected convergence times via the
// absorbing-chain solve (full reachability graph + dense Gaussian
// elimination per instance).
func BenchmarkE17ExactTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.ExactTimes() {
			if p.Err != "" {
				b.Fatalf("%s: %s", p.Protocol, p.Err)
			}
		}
	}
}

// BenchmarkBatchThroughput measures the concurrent batch runner
// (Protocol 2, N = 16, one full convergence per trial, all cores).
func BenchmarkBatchThroughput(b *testing.B) {
	const n = 12
	pr := naming.NewSelfStab(n)
	sup := sim.Supervision{StepBudget: 100_000_000, Slice: 100_000_000}
	for i := 0; i < b.N; i++ {
		sum := sim.RunBatch(context.Background(), pr, 0, 16, 0, sup, sim.BatchObs{}, func(trial, _ int) sim.Trial {
			r := rand.New(rand.NewSource(int64(i*100 + trial)))
			return sim.Trial{
				Cfg:   sim.ArbitraryConfig(pr, n, r),
				Sched: sched.NewRandom(n, true, int64(i*100+trial)),
			}
		})
		for _, br := range sum.Results {
			if !br.Result.Converged {
				b.Fatal("batch trial did not converge")
			}
		}
	}
}

// BenchmarkE18Thm11Scaling: one adversarial defeat + one adversarial
// convergence at P = 4 per iteration.
func BenchmarkE18Thm11Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.Thm11Scaling(4, 200_000, int64(i))
		for _, p := range points {
			if !p.GlobalPDefeated || !p.SelfStabConverged {
				b.Fatalf("outcome changed at P=%d", p.P)
			}
		}
	}
}

// BenchmarkE20Distributions: exact convergence-time laws plus
// simulation cross-validation.
func BenchmarkE20Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.Distributions(500, int64(i)) {
			if p.Err != "" {
				b.Fatalf("%s: %s", p.Protocol, p.Err)
			}
		}
	}
}

// BenchmarkE21OracleSchedules: the constructive proof schedules for the
// tight instances, including N = P = 16.
func BenchmarkE21OracleSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.OracleSchedules(int64(i)) {
			if !p.OK {
				b.Fatalf("%s P=%d failed", p.Protocol, p.P)
			}
		}
	}
}

// BenchmarkE22Stabilize: the multi-epoch fault-injection campaign of
// the four arbitrary-init protocols at N = 6, three conv-triggered
// 2-corruptions per trial (examples/grids/paper/e22.json).
func BenchmarkE22Stabilize(b *testing.B) { benchPaperGrid(b, "e22") }
