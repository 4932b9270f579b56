package naming

import (
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestGlobalPPointerWalk(t *testing.T) {
	pr := NewGlobalP(3)
	l := PtrBST{N: 3, K: 0, NamePtr: 0}

	// Meeting the agent named by the pointer advances it.
	l2, x2 := pr.LeaderInteract(l, 0)
	if x2 != 0 || l2.(PtrBST).NamePtr != 1 {
		t.Fatalf("match: got state %d leader %v", x2, l2)
	}
	// Meeting any other agent renames it and resets the pointer.
	l3, x3 := pr.LeaderInteract(PtrBST{N: 3, NamePtr: 2}, 0)
	if x3 != 2 || l3.(PtrBST).NamePtr != 0 {
		t.Fatalf("mismatch: got state %d leader %v", x3, l3)
	}
	// Completed walk is inert.
	done := PtrBST{N: 3, NamePtr: 3}
	l4, x4 := pr.LeaderInteract(done, 1)
	if !l4.Equal(done) || x4 != 1 {
		t.Fatalf("completed pointer must be null: %v %d", l4, x4)
	}
}

func TestGlobalPBehavesAsProtocol1BelowP(t *testing.T) {
	// For N < P the pointer never engages (n < P throughout), so names
	// are Protocol 1's {1..N}.
	const p = 6
	pr := NewGlobalP(p)
	r := rand.New(rand.NewSource(41))
	for n := 1; n < p; n++ {
		cfg := sim.ArbitraryConfig(pr, n, r)
		res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(5_000_000)
		if !res.Converged {
			t.Fatalf("N=%d: %s", n, res)
		}
		if !cfg.ValidNaming() {
			t.Fatalf("N=%d: %s", n, cfg)
		}
		b := cfg.Leader.(PtrBST)
		if b.N != n {
			t.Fatalf("N=%d: guess %d", n, b.N)
		}
		if b.NamePtr != 0 {
			t.Fatalf("N=%d: pointer engaged below P: %v", n, b)
		}
		for _, s := range cfg.Mobile {
			if int(s) < 1 || int(s) > n {
				t.Fatalf("N=%d: name %d outside {1..%d}", n, s, n)
			}
		}
	}
}

// TestGlobalPNamesFullPopulation: Proposition 17's distinctive case —
// N = P with only P states, under random (globally fair) scheduling.
// Convergence time grows steeply with P (the pointer walk needs a
// ~P^-P-probability interaction sequence), so the simulation sticks to
// small instances; larger ones are covered by the model checker below.
func TestGlobalPNamesFullPopulation(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		pr := NewGlobalP(p)
		r := rand.New(rand.NewSource(int64(p)))
		for trial := 0; trial < 3; trial++ {
			cfg := sim.ArbitraryConfig(pr, p, r)
			res := sim.NewRunner(pr, sched.NewRandom(p, true, int64(p*10+trial)), cfg).Run(50_000_000)
			if !res.Converged {
				t.Fatalf("P=N=%d trial %d: %s", p, trial, res)
			}
			if !cfg.ValidNaming() {
				t.Fatalf("P=N=%d trial %d: invalid naming %s", p, trial, cfg)
			}
			// Names must be exactly {0..P-1}.
			seen := make([]bool, p)
			for _, s := range cfg.Mobile {
				seen[s] = true
			}
			for name, ok := range seen {
				if !ok {
					t.Fatalf("P=N=%d: name %d missing in %s", p, name, cfg)
				}
			}
		}
	}
}

// TestGlobalPModelCheckGlobal proves Proposition 17 exhaustively for
// P = 3, 4 and 5 at N = P: from every mobile start (leader
// initialized), every globally fair execution converges to a naming
// with only P states per agent.
func TestGlobalPModelCheckGlobal(t *testing.T) {
	sizes := []int{3, 4, 5}
	if testing.Short() {
		sizes = []int{3}
	}
	for _, p := range sizes {
		pr := NewGlobalP(p)
		g, err := explore.Build(pr, explore.AllConfigs(p, p, pr.InitLeader()), explore.Options{MaxNodes: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		verdict := g.CheckGlobal(explore.Naming)
		if !verdict.OK {
			t.Fatalf("P=%d: %s", p, verdict)
		}
		t.Logf("Proposition 17 verified at P=N=%d over %d configurations", p, verdict.Explored)
	}
}

// TestGlobalPModelCheckGlobalP6 pushes the exhaustive Proposition 17
// proof to P = N = 6 (934k reachable configurations, ~1 minute) and
// simultaneously witnesses Theorem 11 at the same size. Skipped with
// -short.
func TestGlobalPModelCheckGlobalP6(t *testing.T) {
	if testing.Short() {
		t.Skip("P=6 exhaustive check takes ~1 minute")
	}
	pr := NewGlobalP(6)
	g, err := explore.Build(pr, explore.AllConfigs(6, 6, pr.InitLeader()), explore.Options{MaxNodes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	if verdict := g.CheckGlobal(explore.Naming); !verdict.OK {
		t.Fatalf("global: %s", verdict)
	}
	if verdict := g.CheckWeak(explore.Naming); verdict.OK {
		t.Fatal("weak-fairness check passed at P=6; contradicts Theorem 11")
	}
	t.Logf("Proposition 17 verified and Theorem 11 witnessed at P=N=6 over %d configurations", g.Size())
}

// TestGlobalPFailsWeakFairnessAtP: the flip side — Theorem 11 says no
// P-state symmetric protocol can name N = P under weak fairness, and
// indeed the model checker finds a weakly fair non-converging lasso for
// Protocol 3.
func TestGlobalPFailsWeakFairnessAtP(t *testing.T) {
	const p = 3
	pr := NewGlobalP(p)
	var starts []*core.Config
	for _, c := range allLeaderlessStarts(p, p) {
		starts = append(starts, c.WithLeader(pr.InitLeader()))
	}
	g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckWeak(explore.Naming)
	if verdict.OK {
		t.Fatal("Protocol 3 unexpectedly names N = P under weak fairness (contradicts Theorem 11)")
	}
	lasso, err := g.ExtractLasso(verdict.BadSCC)
	if err != nil {
		t.Fatal(err)
	}
	replayLassoAndAudit(t, pr, g, verdict, lasso, p)
	t.Logf("Theorem 11 witnessed: %s; %s", verdict, lasso)
}

// TestGlobalPWeakFairnessBelowP: for N < P the protocol is Protocol 1,
// which names under weak fairness — the failure above is specific to
// the full population.
func TestGlobalPWeakFairnessBelowP(t *testing.T) {
	const p = 3
	pr := NewGlobalP(p)
	for n := 1; n < p; n++ {
		var starts []*core.Config
		for _, c := range allLeaderlessStarts(p, n) {
			starts = append(starts, c.WithLeader(pr.InitLeader()))
		}
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if verdict := g.CheckWeak(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
	}
}

// TestGlobalPPointerCompletionImpliesNaming is the invariant behind
// Proposition 17's correctness: whenever NamePtr reaches P in any
// execution, the mobile agents are exactly {0..P-1}.
func TestGlobalPPointerCompletionImpliesNaming(t *testing.T) {
	const p = 4
	pr := NewGlobalP(p)
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		cfg := sim.ArbitraryConfig(pr, p, r)
		run := sim.NewRunner(pr, sched.NewRandom(p, true, int64(trial+100)), cfg)
		for i := 0; i < 20_000_000; i++ {
			run.Step()
			if cfg.Leader.(PtrBST).NamePtr == p {
				if !cfg.ValidNaming() {
					t.Fatalf("trial %d: pointer completed on non-naming %s", trial, cfg)
				}
				break
			}
		}
	}
}

func TestPtrBSTLeaderState(t *testing.T) {
	a := PtrBST{N: 1, K: 2, NamePtr: 3}
	if !a.Equal(a.Clone()) || a.Equal(PtrBST{N: 1, K: 2, NamePtr: 0}) || a.Equal(nil) {
		t.Error("bad equality semantics")
	}
	if got := string(a.AppendKey([]byte("x|"))); got != "x|n=1;k=2;ptr=3" {
		t.Errorf("AppendKey = %q, want x|n=1;k=2;ptr=3", got)
	}
	if string(a.AppendKey(nil)) == string((PtrBST{N: 3, K: 2, NamePtr: 1}).AppendKey(nil)) {
		t.Error("key collision")
	}
}
