package adversary

import (
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/fairness"
	"popnaming/internal/naming"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

func TestDistinctStates(t *testing.T) {
	cases := []struct {
		states []core.State
		want   int
	}{
		{[]core.State{1, 1, 1}, 1},
		{[]core.State{1, 2, 3}, 3},
		{[]core.State{}, 0},
	}
	for i, c := range cases {
		if got := DistinctStates(core.NewConfigStates(c.states...)); got != c.want {
			t.Errorf("case %d: %d, want %d", i, got, c.want)
		}
	}
}

// TestRunnerEnforcesWeakFairness: whatever the adversary wants, the
// trace covers every pair within each window.
func TestRunnerEnforcesWeakFairness(t *testing.T) {
	const p = 4
	pr := naming.NewGlobalP(p)
	cfg := core.NewConfig(p, 0).WithLeader(pr.InitLeader())
	adv := NewScheduler(pr, cfg, NewGreedyNaming(pr))
	run := sim.NewRunner(pr, adv, cfg)
	var col trace.Collector
	run.OnStep = col.Record
	const steps = 50000
	for i := 0; i < steps; i++ {
		run.Step()
	}
	a := fairness.AuditPairs(col.Pairs(), p, true)
	if len(a.Missing) > 0 {
		t.Fatalf("missing pairs: %v", a.Missing)
	}
	// Every pair recurs within a bounded gap: the enforcement window
	// plus the backlog of simultaneously overdue pairs.
	bound := adv.Window + fairness.PairCount(p, true)
	if a.MaxGap > bound {
		t.Fatalf("max gap %d exceeds enforcement bound %d", a.MaxGap, bound)
	}
}

// TestGreedyDefeatsGlobalPAtFullPopulation extends Theorem 11's
// evidence beyond model-checkable sizes: under enforced weak fairness,
// the greedy anti-naming adversary prevents Protocol 3 from converging
// at N = P for every P tested — including P = 5 and 6, where the
// reachability graph is far too large to check exhaustively.
func TestGreedyDefeatsGlobalPAtFullPopulation(t *testing.T) {
	budgets := map[int]int{3: 300_000, 4: 300_000, 5: 500_000}
	for p, budget := range budgets {
		pr := naming.NewGlobalP(p)
		r := rand.New(rand.NewSource(int64(p)))
		cfg := sim.ArbitraryConfig(pr, p, r)
		run := sim.NewRunner(pr, NewScheduler(pr, cfg, NewGreedyNaming(pr)), cfg)
		if run.Run(budget).Converged {
			t.Fatalf("P=N=%d: adversary failed to prevent convergence (final %s)", p, cfg)
		}
		if cfg.ValidNaming() {
			t.Fatalf("P=N=%d: naming reached under adversary: %s", p, cfg)
		}
	}
}

// TestGreedyCannotDefeatSelfStab: Proposition 16 holds for EVERY weakly
// fair execution, so the same adversary is powerless against the
// P+1-state Protocol 2 — it converges quickly even under attack.
func TestGreedyCannotDefeatSelfStab(t *testing.T) {
	for _, p := range []int{3, 4, 5} {
		pr := naming.NewSelfStab(p)
		r := rand.New(rand.NewSource(int64(p * 7)))
		cfg := sim.ArbitraryConfig(pr, p, r)
		run := sim.NewRunner(pr, NewScheduler(pr, cfg, NewGreedyNaming(pr)), cfg)
		if !run.Run(5_000_000).Converged {
			t.Fatalf("P=N=%d: Protocol 2 did not converge under adversary", p)
		}
		if !cfg.ValidNaming() {
			t.Fatalf("P=N=%d: invalid naming %s", p, cfg)
		}
	}
}

// TestGreedyCannotDefeatAsymmetric: Proposition 12 likewise holds under
// all weakly fair schedules.
func TestGreedyCannotDefeatAsymmetric(t *testing.T) {
	const p = 6
	pr := naming.NewAsymmetric(p)
	r := rand.New(rand.NewSource(11))
	cfg := sim.ArbitraryConfig(pr, p, r)
	run := sim.NewRunner(pr, NewScheduler(pr, cfg, NewGreedyNaming(pr)), cfg)
	if !run.Run(5_000_000).Converged || !cfg.ValidNaming() {
		t.Fatalf("asymmetric protocol lost to the adversary: %s", cfg)
	}
}

// TestForcedFractionBounded: the adversary does most of the scheduling;
// fairness preemptions are the minority.
func TestForcedFractionBounded(t *testing.T) {
	const p = 4
	pr := naming.NewGlobalP(p)
	cfg := core.NewConfig(p, 0).WithLeader(pr.InitLeader())
	adv := NewScheduler(pr, cfg, NewGreedyNaming(pr))
	run := sim.NewRunner(pr, adv, cfg)
	for i := 0; i < 100000; i++ {
		run.Step()
	}
	if frac := float64(adv.Forced()) / float64(run.Steps()); frac > 0.5 {
		t.Fatalf("forced fraction %.2f too high; adversary barely chooses", frac)
	}
}

// pickFirst is a trivial adversary used to test runner mechanics.
type pickFirst struct{}

func (pickFirst) Name() string { return "first" }
func (pickFirst) Pick(_ *core.Config, cands []core.Pair) core.Pair {
	return cands[0]
}

func TestRunnerWithTrivialAdversaryStillFair(t *testing.T) {
	const n = 5
	pr := naming.NewAsymmetric(n)
	cfg := core.NewConfig(n, 0)
	run := sim.NewRunner(pr, NewScheduler(pr, cfg, pickFirst{}), cfg)
	var col trace.Collector
	run.OnStep = col.Record
	for i := 0; i < 20000; i++ {
		run.Step()
	}
	a := fairness.AuditPairs(col.Pairs(), n, false)
	if len(a.Missing) > 0 {
		t.Fatalf("pairs never scheduled despite enforcement: %v", a.Missing)
	}
}

// TestForcedTieGoesToFirstPairInCandidateOrder: pickFirst schedules
// only (0,1), so at step Window every other unordered pair is equally
// overdue. The forced steps must then sweep them in candidate order —
// a seeded run depends on nothing but its seed.
func TestForcedTieGoesToFirstPairInCandidateOrder(t *testing.T) {
	const n = 5
	pr := naming.NewAsymmetric(n)
	s := NewScheduler(pr, core.NewConfig(n, 0), pickFirst{})
	for i := 0; i < s.Window; i++ {
		if got := s.Next(); got != (core.Pair{A: 0, B: 1}) {
			t.Fatalf("step %d: %v, want the adversary's (0,1)", i, got)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if a == 0 && b == 1 {
				continue
			}
			if got, want := s.Next(), (core.Pair{A: a, B: b}); got != want {
				t.Fatalf("forced %v, want %v", got, want)
			}
		}
	}
	if got, want := s.Forced(), n*(n-1)/2-1; got != want {
		t.Fatalf("Forced() = %d, want %d", got, want)
	}
}
