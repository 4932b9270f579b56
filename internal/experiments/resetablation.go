package experiments

import (
	"fmt"
	"io"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
	"popnaming/internal/seq"
)

// ResetAblationResult is experiment E16: Protocol 2 with and without its
// reset line (lines 11-12 of the paper's pseudo-code), model-checked for
// self-stabilizing naming under weak fairness from every (mobile,
// leader) state combination in the declared domains.
type ResetAblationResult struct {
	P int
	// WithResetOK: full Protocol 2 passes (Proposition 16).
	WithResetOK bool
	// NoResetInitializedOK: the ablated protocol still passes when the
	// leader starts initialized (it is then Protocol 1 with U_P).
	NoResetInitializedOK bool
	// NoResetArbitraryOK: the ablated protocol passes from arbitrary
	// leader states (the ablation expects false).
	NoResetArbitraryOK bool
	// Witness describes the stuck execution found for the ablated
	// protocol.
	Witness string
	// Explored counts configurations across all checks.
	Explored int
}

// ResetAblation runs E16 at bound p (keep small; exhaustive).
func ResetAblation(p int) ResetAblationResult {
	res := ResetAblationResult{P: p}

	check := func(pr core.LeaderProtocol, leaders []core.LeaderState, n int) (explore.Verdict, bool) {
		var starts []*core.Config
		for _, base := range explore.AllConfigs(pr.States(), n, nil) {
			for _, l := range leaders {
				c := base.Clone()
				c.Leader = l.Clone()
				starts = append(starts, c)
			}
		}
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 21})
		if err != nil {
			return explore.Verdict{Reason: err.Error()}, false
		}
		v := g.CheckWeak(explore.Naming)
		return v, v.OK
	}

	allLeaders := func() []core.LeaderState {
		var ls []core.LeaderState
		for n := 0; n <= p+1; n++ {
			for k := 0; k <= seq.Len(p)+1; k++ {
				ls = append(ls, naming.ResetBST{N: n, K: k})
			}
		}
		return ls
	}

	withReset := naming.NewSelfStab(p)
	v1, ok1 := check(withReset, allLeaders(), p)
	res.WithResetOK = ok1
	res.Explored += v1.Explored

	ablated := naming.NewNoReset(p)
	v2, ok2 := check(ablated, []core.LeaderState{ablated.InitLeader()}, p)
	res.NoResetInitializedOK = ok2
	res.Explored += v2.Explored

	v3, ok3 := check(ablated, allLeaders(), p)
	res.NoResetArbitraryOK = ok3
	res.Explored += v3.Explored
	if !ok3 {
		res.Witness = v3.Reason + " at " + v3.BadConfig.String()
	}
	return res
}

// RenderResetAblation prints E16.
func RenderResetAblation(w io.Writer, res ResetAblationResult) {
	fmt.Fprintf(w, "E16 — reset-line ablation of Protocol 2 at P=%d (exhaustive weak-fairness naming checks, %d configurations):\n",
		res.P, res.Explored)
	fmt.Fprintf(w, "  Protocol 2 (with reset), arbitrary leader:  correct = %v\n", res.WithResetOK)
	fmt.Fprintf(w, "  ablated (no reset), initialized leader:     correct = %v\n", res.NoResetInitializedOK)
	fmt.Fprintf(w, "  ablated (no reset), arbitrary leader:       correct = %v\n", res.NoResetArbitraryOK)
	if res.Witness != "" {
		fmt.Fprintf(w, "  stuck witness: %s\n", res.Witness)
	}
}
