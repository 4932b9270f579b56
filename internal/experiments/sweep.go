package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/stats"
)

// SweepPoint is one measured point of a convergence-time curve.
type SweepPoint struct {
	N             int
	MedianSteps   float64
	MeanSteps     float64
	MedianParTime float64 // median interactions / N
	Trials        int
	Failures      int
}

// SweepResult is one protocol's convergence-time curve (the figure-style
// extension experiment E12: the paper's conclusion names time complexity
// as the open follow-up).
type SweepResult struct {
	Protocol string
	States   int
	Points   []SweepPoint
}

// Series converts the curve to a renderable report series (median
// interactions vs N).
func (s SweepResult) Series() report.Series {
	out := report.Series{Name: s.Protocol, XLabel: "N", YLabel: "median interactions to silence"}
	for _, p := range s.Points {
		out.Add(float64(p.N), p.MedianSteps)
	}
	return out
}

// GrowthFit fits the curve's medians to exponential and power-law
// models and returns the better one, characterizing whether the
// protocol's convergence cost is polynomial or exponential in N. Points
// with non-positive medians (instant convergence) are skipped; it
// returns ok=false with fewer than three usable points.
func (s SweepResult) GrowthFit() (stats.Fit, bool) {
	var x, y []float64
	for _, p := range s.Points {
		if p.MedianSteps > 0 {
			x = append(x, float64(p.N))
			y = append(y, p.MedianSteps)
		}
	}
	if len(x) < 3 {
		return stats.Fit{}, false
	}
	return stats.BetterFit(x, y), true
}

// SweepOptions configures a convergence sweep.
type SweepOptions struct {
	// Sizes lists the population sizes to measure.
	Sizes []int
	// Trials per size (default 15).
	Trials int
	// Budget per run (default 50M interactions).
	Budget int
	// Global selects the random scheduler; otherwise round-robin.
	Global bool
	// Start selects the initial configurations measured.
	Start StartMode
	// Seed drives initialization and scheduling.
	Seed int64
}

// StartMode selects the starting configurations of a sweep.
type StartMode int

const (
	// StartAllZero puts every mobile agent in state 0 — the maximal
	// homonym workload, giving a well-defined convergence cost
	// (default).
	StartAllZero StartMode = iota
	// StartArbitrary draws every state at random (runs may start
	// already named).
	StartArbitrary
	// StartUniform uses the protocol's declared uniform initialization.
	StartUniform
)

func (o *SweepOptions) fill() {
	if o.Trials == 0 {
		o.Trials = 15
	}
	if o.Budget == 0 {
		o.Budget = 50_000_000
	}
}

// Sweep measures interactions-to-convergence for one protocol family
// across population sizes. mkProto builds the protocol for a bound P;
// the bound is set to max(Sizes) so every size runs under one instance
// family with N <= P.
func Sweep(name string, mkProto func(p int) core.Protocol, opts SweepOptions) SweepResult {
	opts.fill()
	maxN := 0
	for _, n := range opts.Sizes {
		if n > maxN {
			maxN = n
		}
	}
	pr := mkProto(maxN)
	res := SweepResult{Protocol: name, States: pr.States()}
	for _, n := range opts.Sizes {
		nn := n
		point := SweepPoint{N: n, Trials: opts.Trials}
		// Trials are independent; run them on all cores. Each trial
		// derives its randomness from (Seed, N, trial), so results are
		// independent of worker scheduling.
		sup := sim.Supervision{StepBudget: opts.Budget, Slice: opts.Budget}
		batch := sim.RunBatch(context.Background(), pr, 0, opts.Trials, 0, sup, sim.BatchObs{}, func(trial, _ int) sim.Trial {
			r := rand.New(rand.NewSource(opts.Seed + int64(nn*100000+trial)))
			var s sched.Scheduler
			if opts.Global {
				s = sched.NewRandom(nn, core.HasLeader(pr), opts.Seed+int64(nn*1000+trial))
			} else {
				s = sched.NewRoundRobin(nn, core.HasLeader(pr))
			}
			return sim.Trial{Cfg: startConfig(pr, nn, r, opts.Start), Sched: s}
		})
		var steps []float64
		for _, br := range batch.Results {
			if !br.Result.Converged || !br.Result.Final.ValidNaming() {
				point.Failures++
				continue
			}
			steps = append(steps, float64(br.Result.Steps))
		}
		if len(steps) > 0 {
			sum := stats.Summarize(steps)
			point.MedianSteps = sum.Median
			point.MeanSteps = sum.Mean
			point.MedianParTime = point.MedianSteps / float64(n)
		}
		res.Points = append(res.Points, point)
	}
	return res
}

func startConfig(pr core.Protocol, n int, r *rand.Rand, mode StartMode) *core.Config {
	switch mode {
	case StartUniform:
		return sim.UniformConfig(pr, n)
	case StartArbitrary:
		if ap, ok := pr.(core.ArbitraryInitProtocol); ok {
			return sim.ArbitraryConfig(ap, n, r)
		}
		return sim.UniformConfig(pr, n)
	default: // StartAllZero
		cfg := core.NewConfig(n, 0)
		if lp, ok := pr.(core.LeaderProtocol); ok {
			cfg.Leader = lp.InitLeader()
		}
		return cfg
	}
}

// StandardSweeps runs the E12 curve for every positive protocol of the
// paper in its own correctness regime. The leaderless protocols and
// Prop 14 scale polynomially and sweep up to N = 64; the BST/U*-based
// protocols pay an exponential-in-N pointer walk (see EXPERIMENTS.md)
// and sweep up to N = 16.
func StandardSweeps(seed int64) []SweepResult {
	sizes := []int{2, 4, 8, 16, 32, 64}
	smallSizes := []int{3, 4, 8, 16}
	expSizes := []int{2, 4, 8, 12, 16}
	return []SweepResult{
		Sweep("asymmetric-p12/weak", func(p int) core.Protocol { return naming.NewAsymmetric(p) },
			SweepOptions{Sizes: sizes, Seed: seed}),
		Sweep("asymmetric-p12/global", func(p int) core.Protocol { return naming.NewAsymmetric(p) },
			SweepOptions{Sizes: sizes, Global: true, Seed: seed}),
		Sweep("symglobal-p13/global", func(p int) core.Protocol { return naming.NewSymGlobal(p) },
			SweepOptions{Sizes: smallSizes, Global: true, Seed: seed}),
		Sweep("initleader-p14/weak", func(p int) core.Protocol { return naming.NewInitLeader(p) },
			SweepOptions{Sizes: sizes, Start: StartUniform, Seed: seed}),
		Sweep("selfstab-p16/weak", func(p int) core.Protocol { return naming.NewSelfStab(p) },
			SweepOptions{Sizes: expSizes, Seed: seed}),
		// Protocol 3 below P behaves as Protocol 1; at N = P it needs
		// the exponentially rare pointer walk, so full population is
		// measured separately and only for tiny P (FullPopulationCost).
		Sweep("globalp-p17/global (N=P-1)", func(p int) core.Protocol { return naming.NewGlobalP(p + 1) },
			SweepOptions{Sizes: expSizes, Global: true, Seed: seed}),
	}
}

// FullPopulationCost measures Protocol 3's N = P convergence cost for
// tiny P, exposing the exponential blow-up that makes global fairness
// (rather than weak) essential for this cell.
func FullPopulationCost(seed int64, maxP int) SweepResult {
	res := SweepResult{Protocol: "globalp-p17/global (N=P)", States: 0}
	for p := 2; p <= maxP; p++ {
		pr := naming.NewGlobalP(p)
		res.States = pr.States()
		r := rand.New(rand.NewSource(seed + int64(p)))
		var steps []float64
		failures := 0
		trials := 5
		for trial := 0; trial < trials; trial++ {
			cfg := sim.ArbitraryConfig(pr, p, r)
			run := sim.NewRunner(pr, sched.NewRandom(p, true, seed+int64(p*100+trial)), cfg).Run(100_000_000)
			if !run.Converged {
				failures++
				continue
			}
			steps = append(steps, float64(run.Steps))
		}
		point := SweepPoint{N: p, Trials: trials, Failures: failures}
		if len(steps) > 0 {
			sort.Float64s(steps)
			sum := 0.0
			for _, s := range steps {
				sum += s
			}
			point.MedianSteps = steps[len(steps)/2]
			point.MeanSteps = sum / float64(len(steps))
			point.MedianParTime = point.MedianSteps / float64(p)
		}
		res.Points = append(res.Points, point)
	}
	return res
}

// RenderSweeps prints the sweep results as a table plus per-protocol
// series.
func RenderSweeps(w io.Writer, sweeps []SweepResult) {
	tab := report.NewTable("Convergence cost (median interactions to silence)",
		"protocol", "states", "N", "median", "mean", "parallel", "failures")
	for _, s := range sweeps {
		for _, p := range s.Points {
			tab.AddRowf(s.Protocol, s.States, p.N,
				fmt.Sprintf("%.0f", p.MedianSteps),
				fmt.Sprintf("%.0f", p.MeanSteps),
				fmt.Sprintf("%.1f", p.MedianParTime),
				p.Failures)
		}
	}
	tab.Render(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Growth-model fits (median interactions vs N):")
	for _, s := range sweeps {
		if fit, ok := s.GrowthFit(); ok {
			fmt.Fprintf(w, "  %-32s %s\n", s.Protocol, fit)
		}
	}
	for _, s := range sweeps {
		fmt.Fprintln(w)
		series := s.Series()
		series.Render(w)
	}
}
