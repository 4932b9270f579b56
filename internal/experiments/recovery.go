package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// RecoveryPoint measures re-convergence after corrupting k agents of a
// converged population.
type RecoveryPoint struct {
	Corrupted     int
	MedianSteps   float64
	Trials        int
	Failures      int
	LeaderCorrupt bool
}

// RecoveryResult is the self-stabilization recovery experiment (E13) for
// one protocol: the operational payoff of tolerating arbitrary
// initialization is bounded recovery from transient faults.
type RecoveryResult struct {
	Protocol string
	N        int
	Points   []RecoveryPoint
}

// RecoveryOptions configures the experiment.
type RecoveryOptions struct {
	// N is the population size (default 8).
	N int
	// Trials per corruption size (default 15).
	Trials int
	// Budget per recovery (default 50M).
	Budget int
	// Global selects random scheduling (needed by SymGlobal).
	Global bool
	// CorruptLeader also corrupts the leader (only for protocols that
	// tolerate it).
	CorruptLeader bool
	Seed          int64
}

func (o *RecoveryOptions) fill() {
	if o.N == 0 {
		o.N = 8
	}
	if o.Trials == 0 {
		o.Trials = 15
	}
	if o.Budget == 0 {
		o.Budget = 50_000_000
	}
}

// Recovery converges the protocol, then repeatedly corrupts k of the N
// agents (k = 1..N) and measures interactions until re-convergence.
func Recovery(name string, pr core.ArbitraryInitProtocol, opts RecoveryOptions) RecoveryResult {
	opts.fill()
	res := RecoveryResult{Protocol: name, N: opts.N}
	r := rand.New(rand.NewSource(opts.Seed))
	// Run `phase` (0: converge, 1: recover) of trial i draws its random
	// schedule from sim.DeriveSeed(opts.Seed, i, phase), so runs at
	// different seeds share no schedule.
	mkSched := func(i, phase int) sched.Scheduler {
		if opts.Global {
			return sched.NewRandom(opts.N, core.HasLeader(pr), sim.DeriveSeed(opts.Seed, i, phase))
		}
		return sched.NewRoundRobin(opts.N, core.HasLeader(pr))
	}

	for k := 1; k <= opts.N; k++ {
		point := RecoveryPoint{Corrupted: k, Trials: opts.Trials, LeaderCorrupt: opts.CorruptLeader}
		var steps []float64
		for trial := 0; trial < opts.Trials; trial++ {
			i := (k-1)*opts.Trials + trial
			cfg := sim.ArbitraryConfig(pr, opts.N, r)
			if run := sim.NewRunner(pr, mkSched(i, 0), cfg).Run(opts.Budget); !run.Converged {
				point.Failures++
				continue
			}
			sim.Corrupt(pr, cfg, r, k, opts.CorruptLeader)
			run := sim.NewRunner(pr, mkSched(i, 1), cfg).Run(opts.Budget)
			if !run.Converged || !cfg.ValidNaming() {
				point.Failures++
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		if len(steps) > 0 {
			sort.Float64s(steps)
			point.MedianSteps = steps[len(steps)/2]
		}
		res.Points = append(res.Points, point)
	}
	return res
}

// StandardRecovery runs E13 for the three self-stabilizing protocols in
// their correctness regimes.
func StandardRecovery(seed int64) []RecoveryResult {
	return []RecoveryResult{
		Recovery("asymmetric-p12/weak", naming.NewAsymmetric(8), RecoveryOptions{Seed: seed}),
		Recovery("symglobal-p13/global", naming.NewSymGlobal(8), RecoveryOptions{Global: true, Seed: seed}),
		Recovery("selfstab-p16/weak+leader", naming.NewSelfStab(8), RecoveryOptions{CorruptLeader: true, Seed: seed}),
	}
}

// RenderRecovery prints recovery results.
func RenderRecovery(w io.Writer, results []RecoveryResult) {
	tab := report.NewTable("Self-stabilization recovery (median interactions to re-converge after corrupting k of N agents)",
		"protocol", "N", "k corrupted", "leader too", "median steps", "failures")
	for _, res := range results {
		for _, p := range res.Points {
			tab.AddRowf(res.Protocol, res.N, p.Corrupted, p.LeaderCorrupt,
				fmt.Sprintf("%.0f", p.MedianSteps), p.Failures)
		}
	}
	tab.Render(w)
}
