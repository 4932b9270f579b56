package experiments

import (
	"fmt"
	"io"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/explore"
)

// AblationResult is the U* ablation (E14): Protocol 1 with the true U*
// sequence versus the naive cyclic-sequence variant, both model-checked
// exhaustively for counting correctness under weak fairness.
type AblationResult struct {
	P int
	// UStarOK reports whether Protocol 1 (with U*) passes for every
	// N <= P from every mobile start.
	UStarOK bool
	// NaiveOK reports whether the cyclic variant passes (the ablation
	// expects false).
	NaiveOK bool
	// NaiveWitness describes the counterexample found for the naive
	// variant.
	NaiveWitness string
	// Explored counts configurations over both checks.
	Explored int
}

// UStarAblation runs E14 at bound p (keep p small: the check is
// exhaustive).
func UStarAblation(p int) AblationResult {
	res := AblationResult{P: p, UStarOK: true, NaiveOK: true}

	check := func(pr core.LeaderProtocol, count func(*core.Config) int) (bool, string, int) {
		explored := 0
		for n := 1; n <= p; n++ {
			g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n, pr.InitLeader()), explore.Options{MaxNodes: 1 << 20})
			if err != nil {
				return false, err.Error(), explored
			}
			nn := n
			verdict := g.CheckWeak(func(c *core.Config) bool { return count(c) == nn })
			explored += verdict.Explored
			if !verdict.OK {
				return false, fmt.Sprintf("N=%d: %s", n, verdict), explored
			}
		}
		return true, "", explored
	}

	p1 := counting.New(p)
	okU, witU, expU := check(p1, p1.Count)
	res.UStarOK = okU
	if !okU {
		res.NaiveWitness = "UNEXPECTED: " + witU
	}

	nv := counting.NewNaive(p)
	okN, witN, expN := check(nv, nv.Count)
	res.NaiveOK = okN
	if !okN {
		res.NaiveWitness = witN
	}
	res.Explored = expU + expN
	return res
}

// RenderAblation prints the ablation outcome.
func RenderAblation(w io.Writer, res AblationResult) {
	fmt.Fprintf(w, "U* ablation at P=%d (exhaustive weak-fairness counting check, %d configurations):\n",
		res.P, res.Explored)
	fmt.Fprintf(w, "  Protocol 1 with U* sequence:    correct = %v\n", res.UStarOK)
	fmt.Fprintf(w, "  naive cyclic-sequence variant:  correct = %v\n", res.NaiveOK)
	if !res.NaiveOK {
		fmt.Fprintf(w, "  counterexample: %s\n", res.NaiveWitness)
	}
}
