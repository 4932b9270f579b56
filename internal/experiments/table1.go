// Package experiments implements the paper-reproduction harness: every
// table and figure of the evaluation that is not a plain protocol ×
// population × scheduler product, as runnable experiments with
// structured results. Suite lists every runnable experiment, each
// entry running, rendering and naming its own result; the
// cmd/experiments binary (Table 1 included, as `experiments table1`)
// is one loop over it, and the repository-root benchmarks call the
// experiments directly. Table 1 journals one record per cell
// (Cell.Record) through SuiteOptions.Sink.
//
// The paper (a brief announcement) has one table — Table 1, the
// synthesis of feasibility and exact state-space optimality across model
// parameters — plus constructive proofs. Table1 reproduces every cell
// with executable evidence; the ablation/oracle experiments cover the
// extensions recorded in EXPERIMENTS.md. The convergence-cost sweeps
// (E12, E12b, E15) and the fault-recovery campaigns (E13, E22) are
// campaign grids under examples/grids/paper/.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/impossible"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/report"
	"popnaming/internal/rng"
	"popnaming/internal/sched"
	"popnaming/internal/search"
	"popnaming/internal/sim"
)

// Cell is one verified cell of Table 1.
type Cell struct {
	// Leader is the row: "none", "non-initialized" or "initialized".
	Leader string
	// Rules is the column: "symmetric/weak", "symmetric/global" or
	// "asymmetric".
	Rules string
	// Claim is the paper's entry for the cell.
	Claim string
	// Evidence summarizes the executable check that was run.
	Evidence string
	// OK reports whether the check agreed with the claim.
	OK bool
	// WallNS is the wall-clock time spent verifying the cell.
	WallNS int64 `json:"wallNs"`
}

// Record is the cell's journal record: an experiment record keyed
// table1/<leader>/<rules>, tagged E1, with the evidence as its detail
// and the cell's verification time as its wall clock.
func (c Cell) Record() obs.ExperimentRec {
	rec := obs.NewExperimentRec("table1/"+c.Leader+"/"+c.Rules, "E1", c.OK, c.WallNS)
	rec.Detail = c.Evidence
	return rec
}

// Table1Options sizes the Table 1 reproduction.
type Table1Options struct {
	// P is the population bound used by the simulation checks
	// (default 6).
	P int
	// ModelCheckP is the bound used by the exhaustive checks
	// (default 3; raising it grows state spaces exponentially).
	ModelCheckP int
	// Budget is the per-run interaction budget (default 20M).
	Budget int
	// Seed drives all randomized schedules.
	Seed int64
	// Workers parallelizes the exhaustive searches and model-check
	// graph builds (default 1). It changes throughput only: the
	// graphs, node ids included, and the cell results are equal at any
	// worker count.
	Workers int
	// OnCell, when non-nil, receives each completed cell in table
	// order with WallNS filled — the progress hook the journaling
	// CLIs use to report and time cells as they finish.
	OnCell func(i int, c Cell)
	// Interrupt, when non-nil, is polled between cells; returning true
	// skips the remaining cells so a canceled job returns the cells
	// completed so far (the ppserved cancellation path).
	Interrupt func() bool
}

func (o *Table1Options) fill() {
	if o.P == 0 {
		o.P = 6
	}
	if o.ModelCheckP == 0 {
		o.ModelCheckP = 3
	}
	if o.Budget == 0 {
		o.Budget = 20_000_000
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Table1 reproduces the paper's Table 1: for each combination of leader
// assumption and rule/fairness class it runs the positive protocol to
// convergence (checking the exact state count) or exhibits the paper's
// impossibility construction, and reports agreement.
func Table1(opts Table1Options) []Cell {
	opts.fill()
	builders := []func(Table1Options) Cell{
		cellNoLeaderSymWeak,
		cellNoLeaderSymGlobal,
		func(o Table1Options) Cell { return cellAsymmetric(o, "none") },
		cellNonInitLeaderSymWeak,
		cellNonInitLeaderSymGlobal,
		func(o Table1Options) Cell { return cellAsymmetric(o, "non-initialized") },
		cellInitLeaderSymWeak,
		cellInitLeaderSymGlobal,
		func(o Table1Options) Cell { return cellAsymmetric(o, "initialized") },
	}
	cells := make([]Cell, 0, len(builders))
	for i, build := range builders {
		if opts.Interrupt != nil && opts.Interrupt() {
			break
		}
		start := time.Now()
		c := build(opts)
		c.WallNS = time.Since(start).Nanoseconds()
		if opts.OnCell != nil {
			opts.OnCell(i, c)
		}
		cells = append(cells, c)
	}
	return cells
}

// RenderTable1 formats cells in the layout of the paper's Table 1.
func RenderTable1(w io.Writer, cells []Cell) {
	tab := report.NewTable("Table 1 — naming feasibility and exact optimal state space (reproduced)",
		"leader", "rules/fairness", "paper claim", "evidence", "agrees")
	for _, c := range cells {
		tab.AddRowf(c.Leader, c.Rules, c.Claim, c.Evidence, c.OK)
	}
	tab.Render(w)
}

// cellNoLeaderSymWeak: Proposition 1 — impossible.
func cellNoLeaderSymWeak(o Table1Options) Cell {
	// Adversarial lockstep on the paper's own symmetric protocol plus
	// exhaustive search over all 2-state symmetric protocols.
	rep := impossible.Lockstep(naming.NewSymGlobal(o.P), o.P-o.P%2, 0, 40)
	res := search.SymmetricNamingOpts(2, []int{2}, search.Weak, search.BestUniform,
		search.Options{Workers: o.Workers})
	ok := rep.AlwaysUniform && !rep.Final.ValidNaming() &&
		len(res.Survivors) == 0 && len(res.Inconclusive) == 0
	return Cell{
		Leader: "none", Rules: "symmetric/weak",
		Claim: "impossible (Prop 1)",
		Evidence: fmt.Sprintf("lockstep adversary uniform for %d weakly fair steps; %s",
			rep.Steps, res),
		OK: ok,
	}
}

// cellNoLeaderSymGlobal: Proposition 13 with P+1 states; lower bound
// Proposition 2.
func cellNoLeaderSymGlobal(o Table1Options) Cell {
	pr := naming.NewSymGlobal(o.P)
	simOK, runs := convergeMany(pr, o, func(n int) bool { return n > 2 }, true)
	verdict := modelCheckSymGlobal(o.ModelCheckP, o.Workers)
	lower := search.SymmetricNamingOpts(3, []int{3}, search.Global, search.Arbitrary,
		search.Options{Workers: o.Workers})
	ok := simOK && verdict.OK && len(lower.Survivors) == 0 &&
		len(lower.Inconclusive) == 0 && pr.States() == o.P+1
	return Cell{
		Leader: "none", Rules: "symmetric/global",
		Claim: "P+1 states (Prop 13; bound Prop 2)",
		Evidence: fmt.Sprintf("%d self-stabilizing runs converged with %d states; model-checked %d configs at P=%d; 0/19683 three-state protocols survive",
			runs, pr.States(), verdict.Explored, o.ModelCheckP),
		OK: ok,
	}
}

func modelCheckSymGlobal(p, workers int) explore.Verdict {
	pr := naming.NewSymGlobal(p)
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), 3, nil), explore.Options{MaxNodes: 1 << 20, Workers: workers})
	if err != nil {
		return explore.Verdict{Reason: err.Error()}
	}
	return g.CheckGlobal(explore.Naming)
}

// cellAsymmetric: Proposition 12 with P states, for every leader row
// (the protocol simply ignores any leader).
func cellAsymmetric(o Table1Options, leader string) Cell {
	pr := naming.NewAsymmetric(o.P)
	simOK, runs := convergeMany(pr, o, nil, false)
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), 3, nil), explore.Options{MaxNodes: 1 << 20, Workers: o.Workers})
	verdictOK := false
	explored := 0
	if err == nil {
		v := g.CheckWeak(explore.Naming)
		verdictOK = v.OK
		explored = v.Explored
	}
	ok := simOK && verdictOK && pr.States() == o.P
	return Cell{
		Leader: leader, Rules: "asymmetric (weak or global)",
		Claim: "P states (Prop 12)",
		Evidence: fmt.Sprintf("%d self-stabilizing runs converged with %d states under both schedulers; weak-fairness model check over %d configs",
			runs, pr.States(), explored),
		OK: ok,
	}
}

// cellNonInitLeaderSymWeak: Proposition 16 with P+1 states; lower bound
// Proposition 4.
func cellNonInitLeaderSymWeak(o Table1Options) Cell {
	pr := naming.NewSelfStab(o.P)
	simOK, runs := convergeMany(pr, o, nil, false)
	prop4 := impossible.Prop4Stuck(o.P, 0)
	ok := simOK && prop4.Stuck && pr.States() == o.P+1
	return Cell{
		Leader: "non-initialized", Rules: "symmetric/weak",
		Claim: "P+1 states (Prop 16; bound Prop 4)",
		Evidence: fmt.Sprintf("%d runs from arbitrary leader+mobile states converged with %d states; Prop 4 stuck witness: %v",
			runs, pr.States(), prop4.Stuck),
		OK: ok,
	}
}

// cellNonInitLeaderSymGlobal: Proposition 13 again (the leaderless
// protocol also covers the non-initialized-leader row).
func cellNonInitLeaderSymGlobal(o Table1Options) Cell {
	c := cellNoLeaderSymGlobal(o)
	c.Leader = "non-initialized"
	c.Evidence = "leaderless Prop 13 protocol applies unchanged; " + c.Evidence
	return c
}

// cellInitLeaderSymWeak: initialized agents — Prop 14 with P states;
// non-initialized agents — Prop 16 with P+1 states, bound Theorem 11.
func cellInitLeaderSymWeak(o Table1Options) Cell {
	il := naming.NewInitLeader(o.P)
	okInit := true
	for n := 1; n <= o.P; n++ {
		cfg := sim.UniformConfig(il, n)
		res := sim.NewRunner(il, sched.NewRoundRobin(n, true), cfg).Run(o.Budget)
		if !res.Converged || !cfg.ValidNaming() {
			okInit = false
		}
	}
	// Theorem 11's bound: the P-state Protocol 3 fails the exhaustive
	// weak-fairness check at N = P.
	thm11 := modelCheckGlobalPWeak(o.ModelCheckP, o.Workers)
	ok := okInit && !thm11.OK && il.States() == o.P
	return Cell{
		Leader: "initialized", Rules: "symmetric/weak",
		Claim: "P states if agents initialized (Prop 14); else P+1 (Prop 16; bound Thm 11)",
		Evidence: fmt.Sprintf("uniform-init protocol named all N<=%d with %d states; Thm 11 witness: P-state protocol has weakly fair non-converging lasso over %d configs",
			o.P, il.States(), thm11.Explored),
		OK: ok,
	}
}

func modelCheckGlobalPWeak(p, workers int) explore.Verdict {
	pr := naming.NewGlobalP(p)
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), p, pr.InitLeader()), explore.Options{MaxNodes: 1 << 20, Workers: workers})
	if err != nil {
		return explore.Verdict{OK: true, Reason: err.Error()} // treat as inconclusive
	}
	return g.CheckWeak(explore.Naming)
}

// cellInitLeaderSymGlobal: Proposition 17 with P states.
func cellInitLeaderSymGlobal(o Table1Options) Cell {
	mcP := o.ModelCheckP
	pr := naming.NewGlobalP(mcP)
	g, err := explore.Build(pr, explore.AllConfigs(pr.States(), mcP, pr.InitLeader()), explore.Options{MaxNodes: 1 << 21, Workers: o.Workers})
	verdict := explore.Verdict{}
	if err == nil {
		verdict = g.CheckGlobal(explore.Naming)
	}
	// Simulation at a small full population (see DESIGN.md: the N = P
	// walk needs global fairness; random scheduling realizes it w.p. 1
	// but with steep expected time, so the instance stays small).
	r := rand.New(rng.New(o.Seed + 17))
	pr4 := naming.NewGlobalP(4)
	cfg := sim.ArbitraryConfig(pr4, 4, r)
	res := sim.NewRunner(pr4, sched.NewRandom(4, true, o.Seed+18), cfg).Run(o.Budget)
	ok := verdict.OK && res.Converged && cfg.ValidNaming() && pr.States() == mcP
	return Cell{
		Leader: "initialized", Rules: "symmetric/global",
		Claim: "P states (Prop 17)",
		Evidence: fmt.Sprintf("model-checked all starts at P=N=%d (%d configs); random-schedule run named N=P=4 in %d interactions",
			mcP, verdict.Explored, res.Steps),
		OK: ok,
	}
}

// convergeMany runs a protocol from arbitrary configurations across
// population sizes and both scheduler families, returning overall
// success and the number of runs. Protocols correct only under global
// fairness must pass globalOnly to restrict the runs to the random
// scheduler (a deterministic weakly fair schedule may legitimately
// defeat them).
func convergeMany(pr core.Protocol, o Table1Options, sizeFilter func(int) bool, globalOnly bool) (bool, int) {
	ap, arbitrary := pr.(core.ArbitraryInitProtocol)
	if !arbitrary {
		return false, 0
	}
	r := rand.New(rng.New(o.Seed + int64(len(pr.Name()))))
	runs, ok := 0, true
	for n := 1; n <= o.P; n++ {
		if sizeFilter != nil && !sizeFilter(n) {
			continue
		}
		if n < 2 && !core.HasLeader(pr) {
			continue
		}
		for trial := 0; trial < 3; trial++ {
			cfg := sim.ArbitraryConfig(ap, n, r)
			var s sched.Scheduler
			if trial%2 == 0 && !globalOnly {
				s = sched.NewRoundRobin(n, core.HasLeader(pr))
			} else {
				s = sched.NewRandom(n, core.HasLeader(pr), o.Seed+int64(n*10+trial))
			}
			res := sim.NewRunner(pr, s, cfg).Run(o.Budget)
			runs++
			if !res.Converged || !cfg.ValidNaming() {
				ok = false
			}
		}
	}
	return ok, runs
}
