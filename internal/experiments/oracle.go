package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"popnaming/internal/naming"
	"popnaming/internal/oracle"
	"popnaming/internal/report"
	"popnaming/internal/rng"
	"popnaming/internal/sim"
)

// OraclePoint compares one instance's constructive-schedule cost with
// its exact expected cost under random scheduling (where known).
type OraclePoint struct {
	Protocol string
	P        int
	// OracleSteps is the constructive schedule's length from an
	// arbitrary start (worst of Trials trials).
	OracleSteps int
	Trials      int
	// RandomExact is the exact expected random-scheduler cost from the
	// all-zero start (0 when the instance exceeds the solver's reach).
	RandomExact float64
	OK          bool
}

// OracleSchedules is experiment E21: the positive proofs, executed. The
// global-fairness propositions are proved by exhibiting short
// convergence schedules; playing those schedules deterministically
// names tight instances (N = P) in polynomially-or-2^P-bounded
// interaction counts, while the random scheduler's exact expected cost
// (E17) explodes much faster. The gap IS the content of global
// fairness: convergence hinges on rare-but-reachable sequences.
func OracleSchedules(seed int64) []OraclePoint {
	var out []OraclePoint
	r := rand.New(rng.New(seed))
	exact := map[string]map[int]float64{}
	for _, e := range ExactTimes() {
		if exact[e.Protocol] == nil {
			exact[e.Protocol] = map[int]float64{}
		}
		exact[e.Protocol][e.P] = e.FromZero
	}

	const trials = 5
	for _, p := range []int{3, 4, 8, 12, 16} {
		pr := naming.NewSymGlobal(p)
		pt := OraclePoint{Protocol: "symglobal-p13", P: p, Trials: trials, OK: true,
			RandomExact: exact["symglobal-p13"][p]}
		for trial := 0; trial < trials; trial++ {
			cfg := sim.ArbitraryConfig(pr, p, r)
			steps, silent := oracle.Drive(pr, oracle.NewSymGlobal(pr), cfg, 8*p+16)
			if !silent || !cfg.ValidNaming() {
				pt.OK = false
			}
			if steps > pt.OracleSteps {
				pt.OracleSteps = steps
			}
		}
		out = append(out, pt)
	}
	for _, p := range []int{3, 4, 8, 12, 16} {
		pr := naming.NewGlobalP(p)
		pt := OraclePoint{Protocol: "globalp-p17", P: p, Trials: trials, OK: true,
			RandomExact: exact["globalp-p17"][p]}
		budget := 4*(1<<uint(p-1)) + 4*p*p + 16
		for trial := 0; trial < trials; trial++ {
			cfg := sim.ArbitraryConfig(pr, p, r)
			steps, silent := oracle.Drive(pr, oracle.NewGlobalP(pr), cfg, budget)
			if !silent || !cfg.ValidNaming() {
				pt.OK = false
			}
			if steps > pt.OracleSteps {
				pt.OracleSteps = steps
			}
		}
		out = append(out, pt)
	}
	return out
}

// RenderOracle prints E21.
func RenderOracle(w io.Writer, points []OraclePoint) {
	tab := report.NewTable("E21 — constructive proof schedules vs random scheduling (tight instances, N = P)",
		"protocol", "P=N", "oracle schedule (worst of trials)", "exact E[random] from all-zero", "named")
	for _, p := range points {
		exact := "-"
		if p.RandomExact > 0 {
			exact = fmt.Sprintf("%.1f", p.RandomExact)
		}
		tab.AddRowf(p.Protocol, p.P, p.OracleSteps, exact, p.OK)
	}
	tab.Render(w)
}
