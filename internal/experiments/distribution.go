package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

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
		var leader core.LeaderState
		if lp, ok := pr.(core.LeaderProtocol); ok {
			leader = lp.InitLeader()
		}
		start := core.NewConfig(n, 0)
		start.Leader = leader
		g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n, leader), explore.Options{MaxNodes: 1 << 20})
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			return
		}
		chain, err := markov.New(g)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			return
		}
		d, err := chain.DistributionFrom(start, 1e-9, 1<<22)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			return
		}
		pt.Mean = d.Mean()
		pt.Median, _ = d.Quantile(0.5)
		pt.P90, _ = d.Quantile(0.9)
		pt.P99, _ = d.Quantile(0.99)
		pt.SimAgreement = ksAgainstSim(pr, start, d, simTrials, seed)
		out = append(out, pt)
	}

	add("asymmetric-p12", naming.NewAsymmetric(3), 3, 3)
	add("symglobal-p13", naming.NewSymGlobal(3), 3, 3)
	add("selfstab-p16", naming.NewSelfStab(2), 2, 2)
	add("globalp-p17", naming.NewGlobalP(3), 3, 3)
	return out
}

// ksAgainstSim simulates `trials` precise first-silence times on
// sim.Runner and returns the maximum gap between empirical and exact
// CDFs. A silence check after every null step ends a converged run one
// step past its first silence.
func ksAgainstSim(pr core.Protocol, start *core.Config, d markov.Distribution, trials int, seed int64) float64 {
	samples := make([]int, trials)
	n := start.N()
	for i := range samples {
		run := sim.NewRunner(pr, sched.NewRandom(n, core.HasLeader(pr), seed+int64(i)), start.Clone())
		run.QuietThreshold = 1
		samples[i] = max(0, run.Run(math.MaxInt).Steps-1)
	}
	sort.Ints(samples)
	maxGap := 0.0
	for t := 0; t < len(d.Survival); t++ {
		exactCDF := 1 - d.Survival[t]
		// Empirical CDF at t: fraction of samples <= t.
		idx := sort.SearchInts(samples, t+1)
		empCDF := float64(idx) / float64(trials)
		if gap := empCDF - exactCDF; gap > maxGap {
			maxGap = gap
		} else if -gap > maxGap {
			maxGap = -gap
		}
	}
	return maxGap
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
