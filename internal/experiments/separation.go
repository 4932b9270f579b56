package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/fairness"
	"popnaming/internal/naming"
	"popnaming/internal/rng"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// SeparationResult is the weak-versus-global fairness separation
// experiment (E11) on Protocol 3 at N = P: the same protocol, the same
// starting configurations — convergence under global fairness, a
// concrete non-converging weakly fair execution under weak fairness.
type SeparationResult struct {
	P int
	// GlobalConverges: exhaustive terminal-SCC check passed.
	GlobalConverges bool
	// WeakFails: the fair-SCC check found a counterexample.
	WeakFails bool
	// LassoPrefix and LassoCycle size the extracted schedule.
	LassoPrefix, LassoCycle int
	// CycleWeaklyFair: a fairness audit of the cycle covers all pairs.
	CycleWeaklyFair bool
	// ReplayNonConverging: replaying the lasso through the simulator
	// repeats the configuration without ever stabilizing names.
	ReplayNonConverging bool
	// RandomRunConverged: a plain random-scheduler run of the same
	// instance reached a valid naming.
	RandomRunConverged bool
	// RandomRunSteps is its cost.
	RandomRunSteps int
	// Explored counts model-checked configurations.
	Explored int
}

// FairnessSeparation runs E11 at bound p (3 or 4; the check is
// exhaustive and the random run needs the N = P pointer walk).
func FairnessSeparation(p int, seed int64) SeparationResult {
	res := SeparationResult{P: p}
	pr := naming.NewGlobalP(p)
	starts := explore.AllConfigs(pr.States(), p, pr.InitLeader())
	g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 21})
	if err != nil {
		return res
	}
	gv := g.CheckGlobal(explore.Naming)
	res.GlobalConverges = gv.OK
	res.Explored = gv.Explored

	wv := g.CheckWeak(explore.Naming)
	res.WeakFails = !wv.OK
	if !wv.OK {
		if lasso, err := g.ExtractLasso(wv.BadSCC); err == nil {
			res.LassoPrefix = len(lasso.Prefix)
			res.LassoCycle = len(lasso.Cycle)
			audit := fairness.AuditPairs(lasso.Cycle, p, true)
			res.CycleWeaklyFair = len(audit.Missing) == 0
			res.ReplayNonConverging = replayShowsNonConvergence(pr, g, lasso)
		}
	}

	r := rand.New(rng.New(seed))
	cfg := sim.ArbitraryConfig(pr, p, r)
	run := sim.NewRunner(pr, sched.NewRandom(p, true, seed), cfg).Run(100_000_000)
	res.RandomRunConverged = run.Converged && cfg.ValidNaming()
	res.RandomRunSteps = run.Steps
	return res
}

// replayShowsNonConvergence replays the lasso and checks the cycle
// returns to its anchor while states move or homonyms persist.
func replayShowsNonConvergence(pr core.Protocol, g *explore.Graph, lasso explore.Lasso) bool {
	cfg := g.Nodes[g.Start[0]].Clone()
	for _, p := range lasso.Prefix {
		core.ApplyPair(pr, cfg, p)
	}
	anchor := cfg.Clone()
	stable := true
	for _, p := range lasso.Cycle {
		core.ApplyPair(pr, cfg, p)
		for i := range cfg.Mobile {
			if cfg.Mobile[i] != anchor.Mobile[i] {
				stable = false
			}
		}
		if !cfg.ValidNaming() {
			stable = false
		}
	}
	return cfg.Equal(anchor) && !stable
}

// RenderSeparation prints E11.
func RenderSeparation(w io.Writer, res SeparationResult) {
	fmt.Fprintf(w, "Fairness separation on Protocol 3 at N=P=%d (%d configurations explored):\n", res.P, res.Explored)
	fmt.Fprintf(w, "  global fairness: converges on every start        = %v\n", res.GlobalConverges)
	fmt.Fprintf(w, "  weak fairness:   counterexample lasso found      = %v (prefix %d, cycle %d pairs)\n",
		res.WeakFails, res.LassoPrefix, res.LassoCycle)
	fmt.Fprintf(w, "  lasso cycle covers every pair (weakly fair)      = %v\n", res.CycleWeaklyFair)
	fmt.Fprintf(w, "  replay repeats without stabilizing names         = %v\n", res.ReplayNonConverging)
	fmt.Fprintf(w, "  random (globally fair w.p.1) run converged       = %v in %d interactions\n",
		res.RandomRunConverged, res.RandomRunSteps)
}
