package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"popnaming/internal/adversary"
	"popnaming/internal/naming"
	"popnaming/internal/report"
	"popnaming/internal/rng"
	"popnaming/internal/sim"
)

// Thm11Point is one instance of the Theorem 11 scaling experiment.
type Thm11Point struct {
	P int
	// GlobalPDefeated: the greedy adversary (under enforced weak
	// fairness) prevented the P-state Protocol 3 from converging at
	// N = P within the budget.
	GlobalPDefeated bool
	// GlobalPForced is the fraction of fairness-preempted steps in that
	// run (0 for a run that started silent).
	GlobalPForced float64
	// SelfStabConverged reports that the P+1-state Protocol 2 reached a
	// valid naming under the SAME adversary, and SelfStabSteps how
	// quickly (0 for a silent start).
	SelfStabConverged bool
	SelfStabSteps     int
	// Budget is the adversarial step budget.
	Budget int
}

// Thm11Scaling is experiment E18: Theorem 11 says some weakly fair
// execution defeats every P-state symmetric naming protocol at N = P.
// The model checker exhibits such executions exactly for P <= 4; this
// experiment scales the evidence with a state-aware greedy adversary
// under mechanically enforced weak fairness, and contrasts it with the
// P+1-state Protocol 2, which converges under the same adversary (as
// Proposition 16 requires of every weakly fair execution).
func Thm11Scaling(maxP int, budget int, seed int64) []Thm11Point {
	if budget == 0 {
		budget = 500_000
	}
	var out []Thm11Point
	for p := 3; p <= maxP; p++ {
		pt := Thm11Point{P: p, Budget: budget}

		gp := naming.NewGlobalP(p)
		r := rand.New(rng.New(seed + int64(p)))
		cfg := sim.ArbitraryConfig(gp, p, r)
		adv := adversary.NewScheduler(gp, cfg, adversary.NewGreedyNaming(gp))
		res := sim.NewRunner(gp, adv, cfg).Run(budget)
		pt.GlobalPDefeated = !res.Converged && !cfg.ValidNaming()
		if res.Steps > 0 {
			pt.GlobalPForced = float64(adv.Forced()) / float64(res.Steps)
		}

		ss := naming.NewSelfStab(p)
		cfg2 := sim.ArbitraryConfig(ss, p, r)
		res2 := sim.NewRunner(ss, adversary.NewScheduler(ss, cfg2, adversary.NewGreedyNaming(ss)), cfg2).Run(budget)
		pt.SelfStabConverged = res2.Converged && cfg2.ValidNaming()
		if pt.SelfStabConverged {
			pt.SelfStabSteps = res2.Steps
		}
		out = append(out, pt)
	}
	return out
}

// RenderThm11 prints E18.
func RenderThm11(w io.Writer, points []Thm11Point) {
	tab := report.NewTable("E18 — Theorem 11 beyond model-checkable sizes (greedy adversary, enforced weak fairness, N = P)",
		"P", "P-state Protocol 3 defeated", "forced-step fraction", "P+1-state Protocol 2 converged in", "budget")
	for _, p := range points {
		conv := "FAILED"
		if p.SelfStabConverged {
			conv = fmt.Sprintf("%d steps", p.SelfStabSteps)
		}
		tab.AddRowf(p.P, p.GlobalPDefeated, fmt.Sprintf("%.3f", p.GlobalPForced), conv, p.Budget)
	}
	tab.Render(w)
}
