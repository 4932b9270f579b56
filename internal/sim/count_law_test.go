package sim_test

import (
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/naming"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// lawTrials count-engine runs per fixture put the one-sample critical
// value at c(α)/√m = 0.0308; a sampler biased by a few percent (a
// mis-drawn null-run length, a wrong diagonal correction) moves the
// first-silence law by more than that.
const (
	lawTrials = 4000
	lawAlpha  = 1e-3
)

// TestCountMatchesExactLaw holds the count engine to ground truth: from
// the all-zero start (leader initialized), the first-silence times of
// lawTrials count-engine runs must pass a one-sample KS test against
// the exact law (experiments.ZeroStartLaw: markov.DistributionFrom over
// the explored configuration graph). The fixtures are E20's four plus
// asym at P = N = 4 and selfstab at P = N = 3. With QuietThreshold = 1
// a converged run reports its first silence plus one step. Every trial
// has a finite budget four times the law's computed horizon (where the
// survival is below 10⁻⁹), and a trial that does not converge fails
// the test instead of hanging it.
func TestCountMatchesExactLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-law test is not short")
	}
	fixtures := []core.Protocol{
		naming.NewAsymmetric(3),
		naming.NewSymGlobal(3),
		naming.NewGlobalP(3),
		naming.NewSelfStab(2),
		naming.NewAsymmetric(4),
		naming.NewSelfStab(3),
	}
	for _, pr := range fixtures {
		pr, n := pr, pr.P()
		t.Run(fmt.Sprintf("%s/N=%d", pr.Name(), n), func(t *testing.T) {
			t.Parallel()
			_, law, err := experiments.ZeroStartLaw(pr, n)
			if err != nil {
				t.Fatal(err)
			}
			if law.Truncated {
				t.Fatalf("exact law truncated at %d interactions", len(law.Survival))
			}
			budget := 4 * len(law.Survival)
			samples := make([]int, lawTrials)
			for i := range samples {
				cc, err := sim.CountStart(pr, n, "zero")
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.NewCountRunner(pr, cc, sim.DeriveSeed(61000, i, 0))
				if err != nil {
					t.Fatal(err)
				}
				r.QuietThreshold = 1
				res, err := r.Run(budget)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("trial %d did not converge within %d interactions: %v", i, budget, res)
				}
				samples[i] = res.Steps - 1
			}
			d, crit := law.KS(samples), stats.KSCriticalOne(lawAlpha, lawTrials)
			t.Logf("%s P=N=%d D=%.4f critical=%.4f alpha=%g", pr.Name(), n, d, crit, lawAlpha)
			if d > crit {
				t.Fatalf("first-silence law differs from the exact law: D = %.4f > critical %.4f", d, crit)
			}
		})
	}
}
