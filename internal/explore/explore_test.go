package explore

import (
	"errors"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/fairness"
)

// blackWhite is the illustrative protocol from Section 2 of the paper:
// white agents (0) meeting turn black (1); a black and a white exchange
// colors. Starting from one black and two whites, a weakly fair
// execution can keep one black forever, while every globally fair
// execution ends all black.
func blackWhite() *core.RuleTable {
	return core.NewRuleTable("black-white", 3, 2).
		AddSymmetric(0, 0, 1, 1). // two whites turn black
		AddSymmetric(0, 1, 1, 0)  // exchange colors
}

func allBlack(c *core.Config) bool {
	for _, s := range c.Mobile {
		if s != 1 {
			return false
		}
	}
	return true
}

func TestBlackWhitePaperExample(t *testing.T) {
	pr := blackWhite()
	start := core.NewConfigStates(1, 0, 0)
	g, err := Build(pr, []*core.Config{start}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Globally fair executions terminate all black (paper, Section 2).
	if verdict := g.CheckGlobal(allBlack); !verdict.OK {
		t.Fatalf("global: %s", verdict)
	}

	// Weakly fair executions may keep one black forever.
	verdict := g.CheckWeak(allBlack)
	if verdict.OK {
		t.Fatal("weak-fairness check passed; the paper's counterexample should defeat it")
	}

	// The extracted lasso is a concrete such execution: weakly fair,
	// never all black.
	lasso, err := g.ExtractLasso(verdict.BadSCC)
	if err != nil {
		t.Fatal(err)
	}
	audit := fairness.AuditPairs(lasso.Cycle, 3, false)
	if len(audit.Missing) > 0 {
		t.Fatalf("lasso cycle misses pairs: %v", audit.Missing)
	}
	cfg := start.Clone()
	for _, p := range lasso.Prefix {
		core.ApplyPair(pr, cfg, p)
	}
	for rep := 0; rep < 10; rep++ {
		for _, p := range lasso.Cycle {
			if allBlack(cfg) {
				t.Fatal("lasso reached the all-black configuration")
			}
			core.ApplyPair(pr, cfg, p)
		}
	}
}

func TestBuildExactStateSpace(t *testing.T) {
	// (s,s) -> (s, s+1 mod 2) over 2 agents: from (0,0) reachable
	// configurations are (0,0), (0,1), (1,0) — and (1,1) via... (1,1)
	// is reachable only from (1,1); check exact node set from (0,0).
	pr := core.NewRuleTable("inc", 2, 2).
		Add(0, 0, 0, 1).
		Add(1, 1, 1, 0)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("explored %d nodes, want 3", g.Size())
	}
	if g.NodeID(core.NewConfigStates(1, 1)) != -1 {
		t.Error("(1,1) should be unreachable from (0,0)")
	}
	for _, c := range [][]core.State{{0, 1}, {1, 0}} {
		if g.NodeID(core.NewConfigStates(c...)) == -1 {
			t.Errorf("%v should be reachable", c)
		}
	}
}

func TestBuildCanonicalQuotient(t *testing.T) {
	pr := core.NewRuleTable("inc", 2, 2).Add(0, 0, 0, 1)
	starts := []*core.Config{core.NewConfigStates(0, 0)}
	full, err := Build(pr, starts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := Build(pr, starts, Options{Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Size() != 3 || quot.Size() != 2 {
		t.Fatalf("full %d nodes (want 3), canonical %d nodes (want 2)", full.Size(), quot.Size())
	}
}

func TestCheckWeakPanicsOnCanonical(t *testing.T) {
	pr := core.NewRuleTable("null", 2, 2)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, Options{Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CheckWeak on canonical graph did not panic")
		}
	}()
	g.CheckWeak(Naming)
}

func TestBuildNodeLimit(t *testing.T) {
	pr := core.NewRuleTable("inc3", 4, 4).
		Add(0, 0, 0, 1).Add(1, 1, 1, 2).Add(2, 2, 2, 3).
		Add(0, 1, 1, 1).Add(1, 2, 2, 2).Add(2, 3, 3, 3).
		Add(1, 0, 1, 1).Add(2, 1, 2, 2).Add(3, 2, 3, 3)
	_, err := Build(pr, []*core.Config{core.NewConfigStates(0, 0, 0)}, Options{MaxNodes: 2})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestBuildRejectsEmptyAndMixedStarts(t *testing.T) {
	pr := core.NewRuleTable("null", 2, 2)
	if _, err := Build(pr, nil, Options{}); err == nil {
		t.Error("empty starts accepted")
	}
	starts := []*core.Config{core.NewConfigStates(0, 1), core.NewConfigStates(0, 1, 0)}
	if _, err := Build(pr, starts, Options{}); err == nil {
		t.Error("mixed population sizes accepted")
	}
}

func TestSCCsOnKnownGraph(t *testing.T) {
	// Swap protocol: (0,1) -> (1,0) in both orientations. With agents
	// (0,1), configurations (0,1) and (1,0) form one SCC of size 2, and
	// its single pair label is covered, so it is fair and terminal.
	pr := core.NewRuleTable("swap", 2, 2).AddSymmetric(0, 1, 1, 0)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sccs := g.SCCs()
	if len(sccs) != 1 {
		t.Fatalf("got %d SCCs, want 1", len(sccs))
	}
	s := sccs[0]
	if len(s.Members) != 2 || !s.Terminal || !s.Fair() {
		t.Fatalf("SCC = %+v, want size 2, terminal, fair", s)
	}
	// The swap SCC never stabilizes names: both checks must fail.
	if g.CheckGlobal(Naming).OK {
		t.Error("global check passed on perpetual swapping")
	}
	if g.CheckWeak(Naming).OK {
		t.Error("weak check passed on perpetual swapping")
	}
}

func TestSilentSingletonAccepted(t *testing.T) {
	pr := core.NewRuleTable("null", 2, 2)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.CheckGlobal(Naming); !v.OK {
		t.Errorf("global: %s", v)
	}
	if v := g.CheckWeak(Naming); !v.OK {
		t.Errorf("weak: %s", v)
	}
	if ids := g.SilentConfigs(); len(ids) != 1 {
		t.Errorf("SilentConfigs = %v, want one", ids)
	}
}

func TestLassoRequiresFairSCC(t *testing.T) {
	pr := core.NewRuleTable("inc", 2, 2).Add(0, 0, 0, 1)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sccs := g.SCCs()
	for i := range sccs {
		if !sccs[i].Fair() {
			if _, err := g.ExtractLasso(&sccs[i]); err == nil {
				t.Fatal("lasso extracted from unfair SCC")
			}
			return
		}
	}
	t.Skip("no unfair SCC in this graph")
}

func TestComponentOf(t *testing.T) {
	pr := core.NewRuleTable("swap", 2, 2).AddSymmetric(0, 1, 1, 0)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sccs := g.SCCs()
	comp := g.ComponentOf(sccs)
	if len(comp) != g.Size() {
		t.Fatalf("ComponentOf length %d, want %d", len(comp), g.Size())
	}
	for _, ci := range comp {
		if ci < 0 || ci >= len(sccs) {
			t.Fatalf("component index %d out of range", ci)
		}
	}
}

// TestAsymmetricOrientations: for asymmetric protocols both orientations
// of a pair label must appear as distinct edges.
func TestAsymmetricOrientations(t *testing.T) {
	pr := core.NewRuleTable("oneway", 2, 2).Add(0, 1, 0, 0)
	g, err := Build(pr, []*core.Config{core.NewConfigStates(0, 1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Node (0,1) must have two outgoing edges for the single label:
	// (0,1) applied -> (0,0); (1,0) applied -> null self-loop.
	edges := g.Succ[g.Start[0]]
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2 (both orientations)", len(edges))
	}
	if edges[0].To == edges[1].To {
		t.Fatal("orientations should lead to different configurations here")
	}
}

// TestAsymmetricLassoUsesOrientations: for asymmetric protocols a
// lasso's pairs carry the orientation that realizes each edge; replay
// must reproduce the cycle exactly.
func TestAsymmetricLassoUsesOrientations(t *testing.T) {
	// One-sided swap: (0,1) -> (1,0) as initiator/responder only. The
	// two-agent system oscillates forever between (0,1) and (1,0); both
	// orientations of the single unordered pair appear as distinct
	// edges, and a weakly fair execution can swap forever.
	pr := core.NewRuleTable("oneswap", 2, 2).
		Add(0, 1, 1, 0).
		Add(1, 0, 0, 1)
	start := core.NewConfigStates(0, 1)
	g, err := Build(pr, []*core.Config{start}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := g.CheckWeak(Naming)
	if v.OK {
		t.Fatal("perpetual swap passed the weak check")
	}
	lasso, err := g.ExtractLasso(v.BadSCC)
	if err != nil {
		t.Fatal(err)
	}
	cfg := start.Clone()
	for _, p := range lasso.Prefix {
		core.ApplyPair(pr, cfg, p)
	}
	anchor := cfg.Clone()
	for _, p := range lasso.Cycle {
		core.ApplyPair(pr, cfg, p)
	}
	if !cfg.Equal(anchor) {
		t.Fatalf("cycle replay did not return to anchor: %s vs %s", cfg, anchor)
	}
	if len(lasso.Cycle) == 0 {
		t.Fatal("empty cycle")
	}
}

// TestCanonicalGlobalAgreesWithIdentity: the canonical
// (multiset-quotient) graph reaches the same CheckGlobal verdict as the
// identity-preserving graph, at a fraction of the size. The swap table
// only exchanges two agents' names: on the quotient its one census
// loops to itself, a terminal singleton that is not silent, and must
// fail as the identity graph's two-configuration cycle does.
func TestCanonicalGlobalAgreesWithIdentity(t *testing.T) {
	allBlackP := func(c *core.Config) bool {
		for _, s := range c.Mobile {
			if s != 1 {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name   string
		pr     core.Protocol
		start  *core.Config
		accept Predicate
		ok     bool
	}{
		{"black-white", core.NewRuleTable("bw", 4, 2).
			AddSymmetric(0, 0, 1, 1).
			AddSymmetric(0, 1, 1, 0), core.NewConfigStates(1, 0, 0, 0), allBlackP, false},
		{"swap", core.NewRuleTable("swap", 2, 2).Add(0, 1, 1, 0), core.NewConfigStates(0, 1), Naming, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			starts := []*core.Config{tc.start}
			idGraph, err := Build(tc.pr, starts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			canGraph, err := Build(tc.pr, starts, Options{Canonical: true})
			if err != nil {
				t.Fatal(err)
			}
			if canGraph.Size() >= idGraph.Size() {
				t.Fatalf("quotient did not shrink the graph: %d vs %d", canGraph.Size(), idGraph.Size())
			}
			vi := idGraph.CheckGlobal(tc.accept)
			vc := canGraph.CheckGlobal(tc.accept)
			if vi.OK != tc.ok || vc.OK != tc.ok {
				t.Fatalf("verdicts: identity %v, canonical %v, want OK=%v", vi, vc, tc.ok)
			}
		})
	}
}
