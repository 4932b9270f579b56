package experiments

import (
	"fmt"
	"io"
	"math"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/markov"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// DistPoint is one instance of the exact convergence-time distribution
// experiment.
type DistPoint struct {
	Protocol string
	P, N     int
	Mean     float64
	Median   int
	P90      int
	P99      int
	// SimAgreement is the maximum absolute difference between the exact
	// CDF and the empirical CDF of SimTrials simulated runs (a
	// Kolmogorov-Smirnov-style statistic; small = the simulator samples
	// the true law).
	SimAgreement float64
	SimTrials    int
	Err          string
}

// Distributions is experiment E20: the exact law of the convergence
// time under the uniform-random scheduler — not just its mean (E17) —
// computed by power iteration, with tail quantiles, cross-validated
// against simulated samples. Protocol 3's heavy tail (p90 more than 3x
// the median at P=N=3) explains why sampled sweeps of its full-
// population case are so noisy.
func Distributions(simTrials int, seed int64) []DistPoint {
	if simTrials == 0 {
		simTrials = 2000
	}
	var out []DistPoint
	add := func(name string, pr core.Protocol, p, n int) {
		pt := DistPoint{Protocol: name, P: p, N: n, SimTrials: simTrials}
		start, d, err := ZeroStartLaw(pr, n)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			return
		}
		pt.Mean = d.Mean()
		pt.Median, _ = d.Quantile(0.5)
		pt.P90, _ = d.Quantile(0.9)
		pt.P99, _ = d.Quantile(0.99)
		pt.SimAgreement = d.KS(firstSilenceTimes(pr, start, simTrials, seed))
		out = append(out, pt)
	}

	add("asymmetric-p12", naming.NewAsymmetric(3), 3, 3)
	add("symglobal-p13", naming.NewSymGlobal(3), 3, 3)
	add("selfstab-p16", naming.NewSelfStab(2), 2, 2)
	add("globalp-p17", naming.NewGlobalP(3), 3, 3)
	return out
}

// ZeroStartLaw returns the exact law of pr's convergence (first-silence)
// time from n agents in state 0, the leader initialized, under the
// uniform random scheduler, together with that start configuration.
// The law is power-iterated over the explored configuration graph until
// the survival probability falls below 10⁻⁹.
func ZeroStartLaw(pr core.Protocol, n int) (*core.Config, markov.Distribution, error) {
	var leader core.LeaderState
	if lp, ok := pr.(core.LeaderProtocol); ok {
		leader = lp.InitLeader()
	}
	start := core.NewConfig(n, 0)
	start.Leader = leader
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n, leader), explore.Options{MaxNodes: 1 << 20})
	if err != nil {
		return nil, markov.Distribution{}, err
	}
	chain, err := markov.New(g)
	if err != nil {
		return nil, markov.Distribution{}, err
	}
	d, err := chain.DistributionFrom(start, 1e-9, 1<<22)
	return start, d, err
}

// firstSilenceTimes simulates `trials` precise first-silence times on
// sim.Runner. A silence check after every null step ends a converged
// run one step past its first silence. Trial i's scheduler seed is
// sim.DeriveSeed(seed, i, 0), so runs at different seeds share no trial.
func firstSilenceTimes(pr core.Protocol, start *core.Config, trials int, seed int64) []int {
	samples := make([]int, trials)
	n := start.N()
	for i := range samples {
		run := sim.NewRunner(pr, sched.NewRandom(n, core.HasLeader(pr), sim.DeriveSeed(seed, i, 0)), start.Clone())
		run.QuietThreshold = 1
		samples[i] = max(0, run.Run(math.MaxInt).Steps-1)
	}
	return samples
}

// RenderDistributions prints E20.
func RenderDistributions(w io.Writer, points []DistPoint) {
	tab := report.NewTable("E20 — exact convergence-time distributions (uniform-random scheduler, all-zero start)",
		"protocol", "P=N", "mean", "median", "p90", "p99", "max |CDF gap| vs sim", "sim trials", "error")
	for _, p := range points {
		tab.AddRowf(p.Protocol, p.N,
			fmt.Sprintf("%.1f", p.Mean), p.Median, p.P90, p.P99,
			fmt.Sprintf("%.4f", p.SimAgreement), p.SimTrials, p.Err)
	}
	tab.Render(w)
}
