package markov

import (
	"math"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
)

// TestBlackWhiteExactHittingTime validates the solver on the paper's
// Section 2 example, where the answer is computable by hand: from one
// black and two white agents, each interaction picks one of 3 unordered
// pairs uniformly; exactly one of them (the two whites) reaches the
// absorbing all-black configuration, the other two shuffle colors. The
// expected number of interactions is therefore exactly 3.
func TestBlackWhiteExactHittingTime(t *testing.T) {
	pr := core.NewRuleTable("black-white", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	start := core.NewConfigStates(1, 0, 0)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chain.ExpectedSteps(start)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("expected hitting time = %v, want exactly 3", got)
	}
}

// TestAsymmetricTwoAgents: from (0,0) with the Prop 12 protocol at
// P = 2, every first interaction resolves the tie: expected time 1.
func TestAsymmetricTwoAgents(t *testing.T) {
	pr := naming.NewAsymmetric(2)
	start := core.NewConfigStates(0, 0)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chain.ExpectedSteps(start)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("expected hitting time = %v, want exactly 1", got)
	}
}

// TestMatchesSimulation cross-validates the exact expectation against
// the simulator's sample mean on Protocol 3 at N = P = 3 from the
// all-zero start — the instance whose rare pointer walk makes sampled
// estimates noisy and an exact answer valuable.
func TestMatchesSimulation(t *testing.T) {
	pr := naming.NewGlobalP(3)
	start := core.NewConfigStates(0, 0, 0).WithLeader(pr.InitLeader())
	g, err := explore.Build(pr, starts(pr), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := chain.ExpectedSteps(start)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 3000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(firstSilenceSteps(pr, start, int64(i)))
	}
	mean := sum / trials
	// Sampled mean within 10% of the exact expectation.
	if math.Abs(mean-exact)/exact > 0.10 {
		t.Fatalf("sampled mean %v deviates from exact expectation %v by more than 10%%", mean, exact)
	}
	t.Logf("exact E[steps] = %.2f, sampled mean over %d runs = %.2f", exact, trials, mean)
}

// firstSilenceSteps replays an execution counting interactions until the
// first silent configuration (the Runner's silence detection may overrun
// by its quiet window; here we need the precise count).
func firstSilenceSteps(pr core.LeaderProtocol, start *core.Config, seed int64) int {
	cfg := start.Clone()
	s := sched.NewRandom(3, true, seed)
	steps := 0
	for !core.Silent(pr, cfg) {
		core.ApplyPair(pr, cfg, s.Next())
		steps++
		if steps > 10_000_000 {
			panic("runaway execution")
		}
	}
	return steps
}

func starts(pr *naming.GlobalP) []*core.Config {
	var out []*core.Config
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				out = append(out, core.NewConfigStates(core.State(a), core.State(b), core.State(c)).
					WithLeader(pr.InitLeader()))
			}
		}
	}
	return out
}

// TestRejectsNonAbsorbing: the perpetual-swap protocol never reaches a
// silent configuration, so expected hitting times are infinite.
func TestRejectsNonAbsorbing(t *testing.T) {
	pr := core.NewRuleTable("swap", 2, 2).AddSymmetric(0, 1, 1, 0)
	g, err := explore.Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g); err == nil {
		t.Fatal("non-absorbing chain accepted")
	}
}

// TestAbsorbingStartIsZero: a silent start has expected time 0.
func TestAbsorbingStartIsZero(t *testing.T) {
	pr := naming.NewAsymmetric(3)
	start := core.NewConfigStates(0, 1, 2)
	g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chain.ExpectedSteps(start)
	if err != nil || got != 0 {
		t.Fatalf("ExpectedSteps = %v, %v; want 0, nil", got, err)
	}
}

// TestUnknownConfigErrors: querying an unexplored configuration fails.
func TestUnknownConfigErrors(t *testing.T) {
	pr := naming.NewAsymmetric(3)
	g, err := explore.Build(pr, []*core.Config{core.NewConfigStates(0, 1, 2)}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.ExpectedSteps(core.NewConfigStates(2, 2, 2)); err == nil {
		t.Fatal("unexplored configuration accepted")
	}
}

// TestMaxExpectedDominates: the worst-case start costs at least as much
// as any specific start.
func TestMaxExpectedDominates(t *testing.T) {
	pr := naming.NewGlobalP(3)
	g, err := explore.Build(pr, starts(pr), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	max := chain.MaxExpected()
	for id := 0; id < g.Size(); id++ {
		if chain.ExpectedStepsByID(id) > max {
			t.Fatalf("node %d exceeds MaxExpected", id)
		}
	}
	if max <= 0 {
		t.Fatal("MaxExpected should be positive for this instance")
	}
}

// TestMonotoneInRandomness is a sanity property: expected times computed
// twice from independently built graphs agree (determinism end to end).
func TestDeterministic(t *testing.T) {
	build := func() float64 {
		pr := naming.NewGlobalP(3)
		g, err := explore.Build(pr, starts(pr), explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		return chain.MaxExpected()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("non-deterministic expectations: %v vs %v", a, b)
	}
}

// TestExactTimesEqualAcrossWorkers: a graph is equal at any worker
// count, so its exact expected times are too, node by node and bit for
// bit. globalp at P = N = 4 from the zero start has 735 nodes over 20
// BFS levels.
func TestExactTimesEqualAcrossWorkers(t *testing.T) {
	pr := naming.NewGlobalP(4)
	start := []*core.Config{core.NewConfig(4, 0).WithLeader(pr.InitLeader())}
	solve := func(workers int) (*explore.Graph, *Chain) {
		g, err := explore.Build(pr, start, explore.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		return g, chain
	}
	g, one := solve(1)
	_, four := solve(4)
	if g.Size() != 735 {
		t.Fatalf("%d nodes, want 735", g.Size())
	}
	for v := range g.Nodes {
		if a, b := one.ExpectedStepsByID(v), four.ExpectedStepsByID(v); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("node %d (%s): E = %v at workers 1, %v at workers 4", v, g.Nodes[v], a, b)
		}
	}
}
