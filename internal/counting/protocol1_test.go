package counting

import (
	"math/rand"
	"testing"
	"testing/quick"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/sched"
	"popnaming/internal/seq"
	"popnaming/internal/sim"
)

func TestCheckProtocol(t *testing.T) {
	for p := 2; p <= 10; p++ {
		if err := core.CheckProtocol(New(p)); err != nil {
			t.Errorf("P=%d: %v", p, err)
		}
	}
}

func TestNewRejectsTinyBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1)
}

func TestHomonymRule(t *testing.T) {
	cases := []struct {
		x, y, wx, wy core.State
	}{
		{3, 3, 0, 0},
		{0, 0, 0, 0},
		{1, 2, 1, 2},
		{0, 5, 0, 5},
	}
	for _, c := range cases {
		gx, gy := HomonymRule(c.x, c.y)
		if gx != c.wx || gy != c.wy {
			t.Errorf("HomonymRule(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, gx, gy, c.wx, c.wy)
		}
	}
}

func TestCountingStepUnit(t *testing.T) {
	const p = 4 // nLimit = 4, maxName = 3, U* = U_3 = 1,2,1,3,1,2,1
	cases := []struct {
		name         string
		n, k         int
		x            core.State
		wantN, wantK int
		wantX        core.State
	}{
		{"fresh zero agent", 0, 0, 0, 1, 1, 1},  // k=1>l_0=0 so n=1; U*(1)=1
		{"second zero agent", 1, 1, 0, 2, 2, 2}, // k=2>l_1=1 so n=2; U*(2)=2
		{"third zero agent", 2, 2, 0, 2, 3, 1},  // k=3<=l_2=3; U*(3)=1
		{"named within guess is null", 2, 3, 2, 2, 3, 2},
		{"name above guess jumps pointer", 1, 0, 3, 2, 2, 2}, // k=l_1+1=2, n->2, U*(2)=2
		{"guess at limit is null", 4, 5, 0, 4, 5, 0},
		{"overflow sinks to zero", 3, 7, 0, 4, 8, 0}, // k=8>l_3=7 -> n=4; U*(8)=4>maxName -> sink
	}
	for _, c := range cases {
		n2, k2, x2 := CountingStep(c.n, c.k, c.x, p, p-1)
		if n2 != c.wantN || k2 != c.wantK || x2 != c.wantX {
			t.Errorf("%s: CountingStep(%d,%d,%d) = (%d,%d,%d), want (%d,%d,%d)",
				c.name, c.n, c.k, c.x, n2, k2, x2, c.wantN, c.wantK, c.wantX)
		}
	}
}

func TestCountingStepCapsPointer(t *testing.T) {
	const p = 4
	kCap := seq.Len(p-1) + 1 // 8
	n2, k2, _ := CountingStep(3, kCap, 0, p, p-1)
	if k2 != kCap {
		t.Errorf("pointer grew past its cap: k = %d, want %d", k2, kCap)
	}
	if n2 != 4 {
		t.Errorf("n = %d, want 4", n2)
	}
}

// TestCountingStepMonotonicity: the guess n never decreases and stays
// within [0, nLimit]; the pointer stays within [0, 2^maxName].
func TestCountingStepMonotonicity(t *testing.T) {
	const p = 5
	prop := func(n8, k8, x8 uint8) bool {
		n := int(n8) % (p + 1)
		k := int(k8) % (seq.Len(p-1) + 2)
		x := core.State(int(x8) % p)
		n2, k2, x2 := CountingStep(n, k, x, p, p-1)
		return n2 >= n && n2 <= p &&
			k2 >= 0 && k2 <= seq.Len(p-1)+1 &&
			int(x2) >= 0 && int(x2) < p
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsExactly: the core Theorem 15 claim — for every N <= P and
// arbitrary mobile initialization, the BST's guess converges to N under
// weak fairness.
func TestCountsExactly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for p := 2; p <= 8; p++ {
		pr := New(p)
		for n := 1; n <= p; n++ {
			for trial := 0; trial < 10; trial++ {
				cfg := sim.ArbitraryConfig(pr, n, r)
				run := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg)
				res := run.Run(5_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d trial %d: did not converge: %s", p, n, trial, res)
				}
				if got := pr.Count(cfg); got != n {
					t.Fatalf("P=%d N=%d trial %d: counted %d, final %s", p, n, trial, got, cfg)
				}
			}
		}
	}
}

// TestNamesWhenSmall: the second Theorem 15 claim — for N < P the
// protocol also names: distinct states, drawn from {1..N}.
func TestNamesWhenSmall(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for p := 3; p <= 8; p++ {
		pr := New(p)
		for n := 1; n < p; n++ {
			for trial := 0; trial < 10; trial++ {
				cfg := sim.ArbitraryConfig(pr, n, r)
				res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(5_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d: did not converge", p, n)
				}
				if !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d: homonyms in final %s", p, n, cfg)
				}
				for _, s := range cfg.Mobile {
					if int(s) < 1 || int(s) > n {
						t.Fatalf("P=%d N=%d: name %d outside {1..%d} in %s", p, n, s, n, cfg)
					}
				}
			}
		}
	}
}

// TestNamingCanFailAtFullPopulation documents the N = P boundary that
// motivates Protocols 2 and 3: with N = P there are executions that end
// silent with two sink agents, so Protocol 1 is not a naming protocol at
// full population (Theorem 11 proves no P-state symmetric protocol is).
func TestNamingCanFailAtFullPopulation(t *testing.T) {
	const p = 5
	pr := New(p)
	failed := false
	for seed := int64(0); seed < 20 && !failed; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := sim.ArbitraryConfig(pr, p, r)
		res := sim.NewRunner(pr, sched.NewRandom(p, true, seed), cfg).Run(5_000_000)
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if pr.Count(cfg) != p {
			t.Fatalf("seed %d: wrong count %d", seed, pr.Count(cfg))
		}
		if !cfg.ValidNaming() {
			failed = true
		}
	}
	if !failed {
		t.Error("no execution with N = P left homonyms; expected naming to be unattainable in some runs")
	}
}

// TestModelCheckCounting proves (exhaustively, for P = 3) that Protocol 1
// counts correctly under weak fairness from EVERY mobile initialization:
// every fair limit of every weakly fair execution has the BST guess
// equal to the true population size and frozen mobile states.
func TestModelCheckCounting(t *testing.T) {
	const p = 3
	pr := New(p)
	for n := 1; n <= p; n++ {
		starts := allMobileStarts(pr, n)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 18})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		nn := n
		verdict := g.CheckWeak(func(c *core.Config) bool {
			return c.Leader.(BST).N == nn
		})
		if !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		t.Logf("N=%d: counting verified over %d reachable configurations", n, verdict.Explored)
	}
}

// TestModelCheckNamingBelowP proves (exhaustively, for P = 3, N < P)
// that Protocol 1 names under weak fairness from every mobile start.
func TestModelCheckNamingBelowP(t *testing.T) {
	const p = 3
	pr := New(p)
	for n := 1; n < p; n++ {
		g, err := explore.Build(pr, allMobileStarts(pr, n), explore.Options{MaxNodes: 1 << 18})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if verdict := g.CheckWeak(explore.Naming); !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
	}
}

// TestModelCheckNamingFailsAtP confirms, exhaustively, that Protocol 1
// does NOT name at N = P (the gap Theorem 11 proves is fundamental).
func TestModelCheckNamingFailsAtP(t *testing.T) {
	const p = 3
	pr := New(p)
	g, err := explore.Build(pr, allMobileStarts(pr, p), explore.Options{MaxNodes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckWeak(explore.Naming)
	if verdict.OK {
		t.Fatal("Protocol 1 unexpectedly names at N = P")
	}
	t.Logf("witness: %s", verdict)
}

// allMobileStarts enumerates every mobile configuration with the
// initialized leader attached.
func allMobileStarts(pr *Protocol1, n int) []*core.Config {
	q := pr.States()
	total := 1
	for i := 0; i < n; i++ {
		total *= q
	}
	out := make([]*core.Config, 0, total)
	states := make([]core.State, n)
	for code := 0; code < total; code++ {
		c := code
		for i := range states {
			states[i] = core.State(c % q)
			c /= q
		}
		out = append(out, core.NewConfigStates(states...).WithLeader(pr.InitLeader()))
	}
	return out
}

// TestLeaderStateSemantics covers the BST value-type contract.
func TestLeaderStateSemantics(t *testing.T) {
	a := BST{N: 1, K: 2}
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	if a.Equal(BST{N: 1, K: 3}) {
		t.Error("distinct states compare equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil) returned true")
	}
	if got := string(a.AppendKey([]byte("x|"))); got != "x|n=1;k=2" {
		t.Errorf("AppendKey = %q, want x|n=1;k=2", got)
	}
	if string(a.AppendKey(nil)) == string((BST{N: 2, K: 1}).AppendKey(nil)) {
		t.Error("Key collision across distinct states")
	}
}

// TestGuessNeverDecreasesInExecution: along any execution the BST guess
// is non-decreasing (the protocol only revises upward).
func TestGuessNeverDecreasesInExecution(t *testing.T) {
	const p = 6
	pr := New(p)
	r := rand.New(rand.NewSource(9))
	cfg := sim.ArbitraryConfig(pr, p, r)
	run := sim.NewRunner(pr, sched.NewRandom(p, true, 4), cfg)
	prev := 0
	for i := 0; i < 200000; i++ {
		run.Step()
		if got := cfg.Leader.(BST).N; got < prev {
			t.Fatalf("guess decreased from %d to %d at step %d", prev, got, i)
		} else {
			prev = got
		}
	}
}

func TestRandomMobileRange(t *testing.T) {
	pr := New(5)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s := pr.RandomMobile(r)
		if s < 0 || int(s) >= pr.States() {
			t.Fatalf("RandomMobile out of range: %d", s)
		}
	}
}
