package sim_test

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// countDiffTrials trials per engine give the two-sample KS test enough
// resolution to catch a mis-weighted sampler while staying fast; alpha
// is deliberately strict (the samples SHOULD agree — a false rejection
// would flake CI) and the seeds are fixed, so the test is deterministic.
const (
	countDiffTrials = 120
	countDiffBudget = 400000
	countDiffAlpha  = 1e-3
)

// agentStepsSample runs `trials` agent-engine executions with the
// standard seed recipe (config from trialSeed, scheduler from
// trialSeed+1) and returns the converged Steps values plus the
// converged count.
func agentStepsSample(pr core.Protocol, n int, base int64, trials int) ([]float64, int) {
	withLeader := core.HasLeader(pr)
	var steps []float64
	converged := 0
	for i := 0; i < trials; i++ {
		seed := sim.DeriveSeed(base, i, 0)
		r := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed+1), diffStart(pr, n, seed))
		res := r.Run(countDiffBudget)
		if res.Converged {
			converged++
			steps = append(steps, float64(res.Steps))
		}
	}
	return steps, converged
}

// countStepsSample is the count-engine mirror: the same per-trial
// config seeds, folded to count space, with the runner seeded like the
// scheduler. Equal seeds cannot reproduce trajectories across engines
// (randomness is consumed differently), so only the distributions are
// comparable — which is exactly what the KS test checks.
func countStepsSample(t *testing.T, pr core.Protocol, n int, base int64, trials int) ([]float64, int) {
	t.Helper()
	var steps []float64
	converged := 0
	for i := 0; i < trials; i++ {
		seed := sim.DeriveSeed(base, i, 0)
		cc, err := core.CountsOf(diffStart(pr, n, seed), pr.States())
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewCountRunner(pr, cc, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(countDiffBudget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			converged++
			steps = append(steps, float64(res.Steps))
		}
	}
	return steps, converged
}

// TestCountMatchesAgentDistribution is experiment E23: for every
// registry protocol (P = 12, N = 10; ssle at N = 12), started arbitrary
// where supported and uniform otherwise, the count engine's
// convergence-step distribution must be statistically indistinguishable
// (two-sample KS) from the agent engine's, with convergence rates held
// to binomial noise. Converged means silent, not correctly named:
// `naive` goes silent on wrong names, and both engines must agree on
// that too. Run with -v, it logs one E23 row per protocol.
func TestCountMatchesAgentDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("differential distribution test is not short")
	}
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			pr, n := diffCase(t, key)
			base := int64(52000)
			agent, agentConv := agentStepsSample(pr, n, base, countDiffTrials)
			count, countConv := countStepsSample(t, pr, n, base, countDiffTrials)

			// Convergence rates must agree to within what a binomial at
			// these sizes can produce (±5σ with p̂ pooled, floored).
			if diff := agentConv - countConv; diff < -40 || diff > 40 {
				t.Fatalf("convergence rates diverge: agent %d vs count %d", agentConv, countConv)
			}
			// Every protocol converges often enough at this fixture for
			// the KS test to mean something: a shortfall fails rather
			// than silently dropping the distribution check.
			if agentConv < 30 || countConv < 30 {
				t.Fatalf("too few converged trials for KS: agent %d, count %d of %d", agentConv, countConv, countDiffTrials)
			}
			same, d, crit := stats.KSSame(agent, count, countDiffAlpha)
			t.Logf("E23 %-10s P=%d N=%d agent %d/%d count %d/%d D=%.4f critical=%.4f alpha=%g",
				key, pr.P(), n, agentConv, countDiffTrials, countConv, countDiffTrials, d, crit, countDiffAlpha)
			if !same {
				t.Fatalf("convergence-step distributions differ: D = %.4f > critical %.4f", d, crit)
			}
		})
	}
}
