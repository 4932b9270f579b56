package experiments

import (
	"fmt"
	"io"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sim"
)

// CountScalePoint is one rung of the large-N throughput ladder.
type CountScalePoint struct {
	N           int
	Steps       int
	NonNull     int
	WallNS      int64
	StepsPerSec float64
}

// CountScaleResult is experiment E24's outcome: count-engine throughput
// across population decades on a never-silent workload. FlatnessRatio
// is max/min interactions per second over the rungs with N >= 10^4 (the
// smaller rungs are dominated by per-call setup); the engine's whole
// point is that this ratio stays near 1 while N grows by four orders of
// magnitude.
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
// protocol at P=12: with N > P a valid naming is impossible by
// pigeonhole, homonym pairs always react, and the run never goes silent
// — every rung times exactly Steps interactions. Every rung starts
// balanced, N/P agents per state, so every rung times the same regime:
// the engine pays per non-null interaction, and from an all-zero start
// the non-null share within the budget would fall from nearly 1 at
// N = 10^8 to a tenth at N = 10^4.
func CountScale(opts CountScaleOptions) CountScaleResult {
	opts.fill()
	pr := naming.NewAsymmetric(12)
	res := CountScaleResult{Protocol: pr.Name(), States: pr.States()}
	minRate, maxRate := 0.0, 0.0
	for _, n := range opts.Sizes {
		cc := core.NewCountConfig(pr.States())
		for s := range cc.Counts {
			cc.Counts[s] = n / len(cc.Counts)
			if s < n%len(cc.Counts) {
				cc.Counts[s]++
			}
		}
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
			pt.Steps, pt.NonNull = run.Steps, run.NonNull
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
		fmt.Sprintf("E24 — count-engine throughput vs N (%s, balanced start)", res.Protocol),
		"N", "interactions", "nonNull", "wall", "steps/sec")
	for _, p := range res.Points {
		tab.AddRowf(p.N, p.Steps, p.NonNull,
			time.Duration(p.WallNS).Round(time.Millisecond),
			fmt.Sprintf("%.3g", p.StepsPerSec))
	}
	tab.Render(w)
	fmt.Fprintf(w, "\nthroughput flatness (max/min steps/sec, N >= 1e4): %.2fx\n", res.FlatnessRatio)
}
