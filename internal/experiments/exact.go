package experiments

import (
	"fmt"
	"io"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/markov"
	"popnaming/internal/naming"
	"popnaming/internal/report"
)

// ExactPoint is one exact expected-convergence-time computation.
type ExactPoint struct {
	Protocol string
	P, N     int
	// FromZero is the exact expected number of interactions from the
	// all-zero start under the uniform-random scheduler.
	FromZero float64
	// Worst is the maximum over all explored starting configurations.
	Worst float64
	// Explored is the chain size.
	Explored int
	// Err records analysis failures (e.g. non-absorbing behaviours).
	Err string
}

// ExactTimes is experiment E17: exact expected convergence times under
// the uniform-random scheduler, computed by solving the absorbing
// Markov chain over the full reachability graph — ground truth for the
// sampled sweeps of E12, and the only practical way to quantify
// Protocol 3's rare-walk cost at sizes where sampling is hopeless.
func ExactTimes() []ExactPoint {
	var out []ExactPoint
	add := func(name string, pr core.Protocol, p, n int) {
		pt := ExactPoint{Protocol: name, P: p, N: n}
		var leader core.LeaderState
		if lp, ok := pr.(core.LeaderProtocol); ok {
			leader = lp.InitLeader()
		}
		g, err := explore.Build(pr, explore.AllConfigs(pr.States(), n, leader), explore.Options{MaxNodes: 1 << 21})
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
		zero := core.NewConfig(n, 0)
		zero.Leader = leader
		fromZero, err := chain.ExpectedSteps(zero)
		if err != nil {
			pt.Err = err.Error()
		}
		pt.FromZero = fromZero
		pt.Worst = chain.MaxExpected()
		pt.Explored = g.Size()
		out = append(out, pt)
	}

	for n := 2; n <= 4; n++ {
		add("asymmetric-p12", naming.NewAsymmetric(n), n, n)
	}
	for n := 3; n <= 4; n++ {
		add("symglobal-p13", naming.NewSymGlobal(n), n, n)
	}
	for n := 2; n <= 4; n++ {
		add("initleader-p14", naming.NewInitLeader(n), n, n)
	}
	for n := 2; n <= 3; n++ {
		add("selfstab-p16", naming.NewSelfStab(n), n, n)
	}
	for n := 2; n <= 4; n++ {
		add("globalp-p17", naming.NewGlobalP(n), n, n)
	}
	return out
}

// RenderExact prints E17.
func RenderExact(w io.Writer, points []ExactPoint) {
	tab := report.NewTable("E17 — exact expected interactions to convergence (uniform-random scheduler, absorbing-chain solve)",
		"protocol", "P=N", "E[steps] from all-zero", "worst-case start", "configs", "error")
	for _, p := range points {
		tab.AddRowf(p.Protocol, p.N,
			fmt.Sprintf("%.2f", p.FromZero),
			fmt.Sprintf("%.2f", p.Worst),
			p.Explored, p.Err)
	}
	tab.Render(w)
}
