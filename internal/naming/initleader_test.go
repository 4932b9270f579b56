package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func TestInitLeaderRule(t *testing.T) {
	pr := NewInitLeader(4) // states 0..3, fresh = 3
	l := pr.InitLeader()

	// First fresh agent gets name 0.
	l2, x2 := pr.LeaderInteract(l, 3)
	if x2 != 0 || l2.(Counter).C != 1 {
		t.Fatalf("first naming: got state %d counter %v", x2, l2)
	}
	// Named agents are never renamed.
	l3, x3 := pr.LeaderInteract(l2, 0)
	if x3 != 0 || !l3.Equal(l2) {
		t.Fatalf("named agent interaction must be null")
	}
	// Counter stops at P-1: the last fresh agent keeps P-1.
	full := Counter{C: 3}
	l4, x4 := pr.LeaderInteract(full, 3)
	if x4 != 3 || !l4.Equal(full) {
		t.Fatalf("fresh agent at full counter must keep state P-1, got %d %v", x4, l4)
	}
}

func TestInitLeaderMobileIsNull(t *testing.T) {
	pr := NewInitLeader(5)
	for x := core.State(0); x < 5; x++ {
		for y := core.State(0); y < 5; y++ {
			gx, gy := pr.Mobile(x, y)
			if gx != x || gy != y {
				t.Fatalf("Mobile(%d,%d) non-null", x, y)
			}
		}
	}
}

// TestInitLeaderNamesExactly: Proposition 14 — with uniform init and an
// initialized leader, P states suffice under weak fairness, and the
// names assigned are exactly {0..N-1} for N < P (plus the kept fresh
// state when N = P).
func TestInitLeaderNamesExactly(t *testing.T) {
	for p := 2; p <= 9; p++ {
		pr := NewInitLeader(p)
		for n := 1; n <= p; n++ {
			cfg := sim.UniformConfig(pr, n)
			res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(1_000_000)
			if !res.Converged {
				t.Fatalf("P=%d N=%d: %s", p, n, res)
			}
			if !cfg.ValidNaming() {
				t.Fatalf("P=%d N=%d: invalid naming %s", p, n, cfg)
			}
			seen := make(map[core.State]bool)
			for _, s := range cfg.Mobile {
				seen[s] = true
			}
			if n < p {
				for i := 0; i < n; i++ {
					if !seen[core.State(i)] {
						t.Fatalf("P=%d N=%d: name %d not assigned: %s", p, n, i, cfg)
					}
				}
			} else {
				// N = P: names 0..P-2 plus the kept fresh state P-1.
				for i := 0; i < p; i++ {
					if !seen[core.State(i)] {
						t.Fatalf("P=%d N=P: name %d missing: %s", p, i, cfg)
					}
				}
			}
		}
	}
}

// TestInitLeaderModelCheckWeak proves Proposition 14 exhaustively for
// P = 4: from the uniform start, every weakly fair execution names.
func TestInitLeaderModelCheckWeak(t *testing.T) {
	const p = 4
	pr := NewInitLeader(p)
	for n := 1; n <= p; n++ {
		start := sim.UniformConfig(pr, n)
		g, err := explore.Build(pr, []*core.Config{start}, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if verdict := g.CheckWeak(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		if verdict := g.CheckGlobal(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d global: %s", n, verdict)
		}
	}
}

// TestInitLeaderNeedsInitialization documents why this protocol sits in
// the "initialized leader + initialized agents" cell: a corrupted
// (non-fresh, duplicated) mobile start defeats it.
func TestInitLeaderNeedsInitialization(t *testing.T) {
	pr := NewInitLeader(4)
	// Two agents already sharing name 1, none fresh: no rule ever fires.
	cfg := core.NewConfigStates(1, 1, 2).WithLeader(pr.InitLeader())
	if !core.Silent(pr, cfg) {
		t.Fatal("corrupted configuration should be (wrongly) silent")
	}
	if cfg.ValidNaming() {
		t.Fatal("corrupted configuration should violate naming")
	}
}

// TestInitLeaderUniformInitState: the declared uniform start is the
// fresh state P-1.
func TestInitLeaderUniformInitState(t *testing.T) {
	pr := NewInitLeader(6)
	if got := pr.InitMobile(); got != 5 {
		t.Errorf("InitMobile = %d, want 5", got)
	}
	var _ core.UniformInitProtocol = pr
}

func TestCounterLeaderState(t *testing.T) {
	c := Counter{C: 2}
	if !c.Equal(c.Clone()) {
		t.Error("clone not equal")
	}
	if c.Equal(Counter{C: 3}) || c.Equal(nil) {
		t.Error("bad equality")
	}
	if got := string(c.AppendKey([]byte("x|"))); got != "x|c=2" {
		t.Errorf("AppendKey = %q, want x|c=2", got)
	}
	if string(c.AppendKey(nil)) == string((Counter{C: 3}).AppendKey(nil)) {
		t.Error("key collision")
	}
}
