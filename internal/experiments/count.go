package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// CountDiffPoint is one protocol's count-vs-agent engine comparison:
// convergence rates under both engines plus a two-sample
// Kolmogorov-Smirnov test on the convergence-step distributions.
type CountDiffPoint struct {
	Protocol string
	P, N     int
	Trials   int
	// AgentConverged / CountConverged are the per-engine converged-trial
	// counts; their difference is held to a binomial-noise bound.
	AgentConverged int
	CountConverged int
	// KS and Critical report the KS distance and its rejection threshold
	// at Alpha; KSUsed is false when too few trials converged for the
	// distribution test to mean anything (the rate check then stands
	// alone). Converged means silent, not correctly named: `naive` goes
	// silent on wrong names, and both engines must agree on that too.
	KS       float64
	Critical float64
	Alpha    float64
	KSUsed   bool
	OK       bool
	Detail   string
}

// CountDiffOptions configures the E23 differential.
type CountDiffOptions struct {
	// Trials per engine per protocol (default 120).
	Trials int
	// Budget per run (default 400k interactions).
	Budget int
	// Alpha is the KS rejection level (default 1e-3: the engines SHOULD
	// agree, so the test is deliberately hard to fail by noise).
	Alpha float64
	// Seed drives per-trial derived seeds.
	Seed int64
}

func (o *CountDiffOptions) fill() {
	if o.Trials == 0 {
		o.Trials = 120
	}
	if o.Budget == 0 {
		o.Budget = 400_000
	}
	if o.Alpha == 0 {
		o.Alpha = 1e-3
	}
}

// countDiffCase mirrors the sim package's differential fixture: bound
// P=12, N=10 (ssle needs N=P exactly).
func countDiffCase(key string) (core.Protocol, int, int) {
	spec, _ := Lookup(key)
	p, n := 12, 10
	if key == "ssle" {
		n = 12
	}
	return spec.New(p), p, n
}

// countDiffStart builds one trial's starting configuration: arbitrary
// when the protocol supports it (the self-stabilizing workload),
// uniform otherwise — identical to the agent-engine differential suite.
func countDiffStart(pr core.Protocol, n int, seed int64) *core.Config {
	if ap, ok := pr.(core.ArbitraryInitProtocol); ok {
		return sim.ArbitraryConfig(ap, n, rand.New(rand.NewSource(seed)))
	}
	return sim.UniformConfig(pr, n)
}

// CountDifferential is experiment E23: for every registry protocol,
// run the same per-trial starting configurations under the agent engine
// (uniform random scheduler) and the count engine, and demand that the
// convergence-step distributions are statistically indistinguishable.
// Identical seeds cannot reproduce trajectories across engines — the
// randomness is consumed differently — so distribution equality is
// exactly the right (and strongest available) correctness statement.
func CountDifferential(opts CountDiffOptions) []CountDiffPoint {
	opts.fill()
	var out []CountDiffPoint
	for _, key := range RegistryKeys() {
		pr, p, n := countDiffCase(key)
		pt := CountDiffPoint{Protocol: key, P: p, N: n, Trials: opts.Trials, Alpha: opts.Alpha, OK: true}

		var agent, count []float64
		for i := 0; i < opts.Trials; i++ {
			seed := sim.DeriveSeed(opts.Seed, i, 0)
			r := sim.NewRunner(pr, sched.NewRandom(n, core.HasLeader(pr), seed+1), countDiffStart(pr, n, seed))
			if res := r.Run(opts.Budget); res.Converged {
				pt.AgentConverged++
				agent = append(agent, float64(res.Steps))
			}
		}
		for i := 0; i < opts.Trials; i++ {
			seed := sim.DeriveSeed(opts.Seed, i, 0)
			cc, err := core.CountsOf(countDiffStart(pr, n, seed), pr.States())
			if err != nil {
				pt.OK = false
				pt.Detail = err.Error()
				break
			}
			cr, err := sim.NewCountRunner(pr, cc, seed+1)
			if err != nil {
				pt.OK = false
				pt.Detail = err.Error()
				break
			}
			res, err := cr.Run(opts.Budget)
			if err != nil {
				pt.OK = false
				pt.Detail = err.Error()
				break
			}
			if res.Converged {
				pt.CountConverged++
				count = append(count, float64(res.Steps))
			}
		}
		if pt.OK {
			// Convergence rates must agree within generous binomial noise
			// (±1/3 of the trial count covers >5 sigma at these sizes).
			if d := pt.AgentConverged - pt.CountConverged; d > opts.Trials/3 || d < -opts.Trials/3 {
				pt.OK = false
				pt.Detail = "convergence rates diverge"
			} else if len(agent) >= 30 && len(count) >= 30 {
				pt.KSUsed = true
				same, d, crit := stats.KSSame(agent, count, opts.Alpha)
				pt.KS, pt.Critical = d, crit
				if !same {
					pt.OK = false
					pt.Detail = "KS rejects distribution equality"
				}
			} else {
				pt.Detail = "too few converged trials for KS; rate check only"
			}
		}
		out = append(out, pt)
	}
	return out
}

// RenderCountDiff prints E23.
func RenderCountDiff(w io.Writer, points []CountDiffPoint) {
	tab := report.NewTable("E23 — count vs agent engine, convergence-step distributions (two-sample KS)",
		"protocol", "P", "N", "trials", "agent conv", "count conv", "KS D", "critical", "ok", "note")
	for _, p := range points {
		ks, crit := "-", "-"
		if p.KSUsed {
			ks = fmt.Sprintf("%.4f", p.KS)
			crit = fmt.Sprintf("%.4f", p.Critical)
		}
		tab.AddRowf(p.Protocol, p.P, p.N, p.Trials, p.AgentConverged, p.CountConverged, ks, crit, p.OK, p.Detail)
	}
	tab.Render(w)
}

// CountScalePoint is one rung of the large-N throughput ladder.
type CountScalePoint struct {
	N           int
	Steps       int
	WallNS      int64
	StepsPerSec float64
}

// CountScaleResult is experiment E24's outcome: count-engine throughput
// across population decades on a never-silent workload. FlatnessRatio
// is max/min steps-per-sec over the rungs with N >= 10^4 (the smaller
// rungs fit the counts in a cache line and run atypically hot); the
// engine's whole point is that this ratio stays near 1 while N grows by
// four orders of magnitude.
type CountScaleResult struct {
	Protocol      string
	States        int
	Points        []CountScalePoint
	FlatnessRatio float64
}

// CountScaleOptions configures the E24 ladder.
type CountScaleOptions struct {
	// Sizes lists the population rungs (default 10^3 … 10^8).
	Sizes []int
	// Steps is the fixed interaction budget timed per rung (default 2M).
	Steps int
	// Seed seeds each rung's runner.
	Seed int64
}

func (o *CountScaleOptions) fill() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	}
	if o.Steps == 0 {
		o.Steps = 2_000_000
	}
}

// CountScale measures count-engine throughput at populations the agent
// engine cannot represent (an agent array at N = 10^8 is 800 MB before
// the first interaction). The workload is the asymmetric naming
// protocol at P=12 started all-zero: with N > P a valid naming is
// impossible by pigeonhole, homonym pairs always react, and the run
// never goes silent — every rung times exactly Steps interactions.
func CountScale(opts CountScaleOptions) CountScaleResult {
	opts.fill()
	pr := naming.NewAsymmetric(12)
	res := CountScaleResult{Protocol: pr.Name(), States: pr.States()}
	minRate, maxRate := 0.0, 0.0
	for _, n := range opts.Sizes {
		cc := core.NewCountConfig(pr.States())
		cc.Counts[0] = n
		pt := CountScalePoint{N: n, Steps: opts.Steps}
		r, err := sim.NewCountRunner(pr, cc, opts.Seed)
		if err != nil {
			// Out-of-bounds rung (N past the overflow guard): record a
			// zero-throughput point rather than dying mid-ladder.
			res.Points = append(res.Points, pt)
			continue
		}
		start := time.Now()
		run, err := r.Run(opts.Steps)
		pt.WallNS = time.Since(start).Nanoseconds()
		if err == nil && pt.WallNS > 0 {
			pt.Steps = run.Steps
			pt.StepsPerSec = float64(run.Steps) / (float64(pt.WallNS) / 1e9)
		}
		if n >= 1e4 && pt.StepsPerSec > 0 {
			if minRate == 0 || pt.StepsPerSec < minRate {
				minRate = pt.StepsPerSec
			}
			if pt.StepsPerSec > maxRate {
				maxRate = pt.StepsPerSec
			}
		}
		res.Points = append(res.Points, pt)
	}
	if minRate > 0 {
		res.FlatnessRatio = maxRate / minRate
	}
	return res
}

// RenderCountScale prints E24.
func RenderCountScale(w io.Writer, res CountScaleResult) {
	tab := report.NewTable(
		fmt.Sprintf("E24 — count-engine throughput vs N (%s)", res.Protocol),
		"N", "interactions", "wall", "steps/sec")
	for _, p := range res.Points {
		tab.AddRowf(p.N, p.Steps,
			time.Duration(p.WallNS).Round(time.Millisecond),
			fmt.Sprintf("%.3g", p.StepsPerSec))
	}
	tab.Render(w)
	fmt.Fprintf(w, "\nthroughput flatness (max/min steps/sec, N >= 1e4): %.2fx\n", res.FlatnessRatio)
}
