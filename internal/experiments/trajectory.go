package experiments

import (
	"fmt"
	"io"

	"popnaming/internal/adversary"
	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

// TrajectoryPoint samples the progress of one execution.
type TrajectoryPoint struct {
	Step     int
	Distinct int // distinct mobile states
	Sink     int // agents in state 0 (the unnamed pool, where applicable)
}

// Trajectory is experiment E19: the time course of a single convergence
// — how the number of distinct names climbs (and dips, as homonyms are
// detected and recycled through the sink) until it pins at N. It is the
// figure-style view of the naming dynamics that the aggregate sweeps
// (E12) cannot show.
type Trajectory struct {
	Protocol string
	N        int
	Points   []TrajectoryPoint
	// ConvergedAt is the step of the last state change (-1 if the
	// budget ran out).
	ConvergedAt int
}

// Series renders distinct-names-over-time.
func (tr Trajectory) Series() report.Series {
	s := report.Series{Name: tr.Protocol + " trajectory", XLabel: "interactions", YLabel: "distinct names"}
	for _, p := range tr.Points {
		s.Add(float64(p.Step), float64(p.Distinct))
	}
	return s
}

// TraceTrajectory runs one execution and samples its progress every
// `every` interactions (plus the final configuration).
func TraceTrajectory(pr core.Protocol, cfg *core.Config, s sched.Scheduler, budget, every int) Trajectory {
	tr := Trajectory{Protocol: pr.Name(), N: cfg.N(), ConvergedAt: -1}
	sample := func(step int) {
		tr.Points = append(tr.Points, TrajectoryPoint{
			Step:     step,
			Distinct: adversary.DistinctStates(cfg),
			Sink:     cfg.Count(0),
		})
	}
	run := sim.NewRunner(pr, s, cfg)
	// A trajectory ends 4N²+65 quiet steps after its last change, once
	// that configuration is silent.
	run.QuietThreshold = 4*cfg.N()*cfg.N() + 65
	lastChange := 0
	run.OnStep = func(e trace.Event) {
		if e.NonNull {
			lastChange = e.Step + 1
		}
		if (e.Step+1)%every == 0 {
			sample(e.Step + 1)
		}
	}
	sample(0)
	res := run.Run(budget)
	if res.Converged {
		tr.ConvergedAt = lastChange
	}
	sample(res.Steps)
	return tr
}

// StandardTrajectories runs E19 for the three protocol families with
// visibly different dynamics, from the all-zero start.
func StandardTrajectories(seed int64) []Trajectory {
	const n = 10
	var out []Trajectory

	asym := naming.NewAsymmetric(n)
	out = append(out, TraceTrajectory(asym, core.NewConfig(n, 0),
		sched.NewRandom(n, false, seed), 10_000_000, 25))

	sg := naming.NewSymGlobal(n)
	out = append(out, TraceTrajectory(sg, core.NewConfig(n, 0),
		sched.NewRandom(n, false, seed+1), 50_000_000, 100))

	ss := naming.NewSelfStab(n)
	cfg := core.NewConfig(n, 0).WithLeader(ss.InitLeader())
	out = append(out, TraceTrajectory(ss, cfg,
		sched.NewRandom(n, true, seed+2), 50_000_000, 500))

	return out
}

// RenderTrajectories prints E19.
func RenderTrajectories(w io.Writer, trs []Trajectory) {
	fmt.Fprintln(w, "E19 — convergence trajectories (distinct names over time, all-zero start):")
	for _, tr := range trs {
		fmt.Fprintf(w, "\n%s (N=%d, converged at step %d):\n", tr.Protocol, tr.N, tr.ConvergedAt)
		renderSpark(w, tr)
		s := tr.Series()
		s.Render(w)
	}
}

// renderSpark prints a coarse ASCII profile of the trajectory.
func renderSpark(w io.Writer, tr Trajectory) {
	if len(tr.Points) == 0 {
		return
	}
	marks := []byte(" .:-=+*#%@")
	var line []byte
	for _, p := range samplePoints(tr.Points, 60) {
		idx := p.Distinct * (len(marks) - 1) / tr.N
		if idx >= len(marks) {
			idx = len(marks) - 1
		}
		line = append(line, marks[idx])
	}
	fmt.Fprintf(w, "  [%s]\n", line)
}

// samplePoints downsamples to at most k points, keeping the ends.
func samplePoints(points []TrajectoryPoint, k int) []TrajectoryPoint {
	if len(points) <= k {
		return points
	}
	out := make([]TrajectoryPoint, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, points[i*(len(points)-1)/(k-1)])
	}
	return out
}
