package naming

import (
	"math/rand"
	"strings"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/seq"
	"popnaming/internal/sim"
)

// TestSelfStabConvergesFromArbitraryEverything: Proposition 16 — P+1
// states, arbitrary mobile states AND arbitrary leader state, weak
// fairness.
func TestSelfStabConvergesFromArbitraryEverything(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for p := 2; p <= 8; p++ {
		pr := NewSelfStab(p)
		for n := 1; n <= p; n++ {
			for trial := 0; trial < 10; trial++ {
				cfg := sim.ArbitraryConfig(pr, n, r) // random mobiles and random leader
				res := sim.NewRunner(pr, sched.NewRoundRobin(n, true), cfg).Run(5_000_000)
				if !res.Converged {
					t.Fatalf("P=%d N=%d trial %d: %s", p, n, trial, res)
				}
				if !cfg.ValidNaming() {
					t.Fatalf("P=%d N=%d: invalid naming %s", p, n, cfg)
				}
				for _, s := range cfg.Mobile {
					if int(s) < 1 || int(s) > p {
						t.Fatalf("P=%d N=%d: name %d outside {1..%d}: %s", p, n, s, p, cfg)
					}
				}
			}
		}
	}
}

// TestSelfStabNamesFullPopulation: unlike Protocol 1, the P+1-state
// version names all N = P agents (the extra state extends U* to U_P).
func TestSelfStabNamesFullPopulation(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	const p = 7
	pr := NewSelfStab(p)
	for trial := 0; trial < 20; trial++ {
		cfg := sim.ArbitraryConfig(pr, p, r)
		res := sim.NewRunner(pr, sched.NewRandom(p, true, int64(trial)), cfg).Run(10_000_000)
		if !res.Converged {
			t.Fatalf("trial %d: %s", trial, res)
		}
		if !cfg.ValidNaming() {
			t.Fatalf("trial %d: invalid naming %s", trial, cfg)
		}
	}
}

// TestSelfStabResetLine: an absurd leader guess is reset by the first
// unnamed agent it meets once n exceeds P.
func TestSelfStabResetLine(t *testing.T) {
	pr := NewSelfStab(4)
	l := ResetBST{N: 5, K: 11}
	l2, x2 := pr.LeaderInteract(l, 0)
	if got := l2.(ResetBST); got.N != 0 || got.K != 0 {
		t.Fatalf("reset line: leader %v, want zeros", got)
	}
	if x2 != 0 {
		t.Fatalf("reset line must not rename the agent, got %d", x2)
	}
	// A named agent does not trigger the reset.
	l3, x3 := pr.LeaderInteract(l, 2)
	if !l3.Equal(l) || x3 != 2 {
		t.Fatalf("named agent with oversized guess must be null, got %v %d", l3, x3)
	}
}

// TestSelfStabModelCheckWeak proves Proposition 16 exhaustively for
// P = 2, N = 1..2: from EVERY combination of mobile states and leader
// states within the declared domains, every weakly fair execution
// converges to a naming with P+1 = 3 states per agent.
func TestSelfStabModelCheckWeak(t *testing.T) {
	const p = 2
	pr := NewSelfStab(p)
	for n := 1; n <= p; n++ {
		starts := allSelfStabStarts(pr, n)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		verdict := g.CheckWeak(explore.Naming)
		if !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		t.Logf("Proposition 16 verified at P=%d, N=%d over %d configurations (%d starts)",
			p, n, verdict.Explored, len(starts))
	}
}

// TestSelfStabModelCheckWeakP3 extends the exhaustive proof to P = 3
// with every mobile start and every leader state in domain.
func TestSelfStabModelCheckWeakP3(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive P=3 check skipped in -short mode")
	}
	const p = 3
	pr := NewSelfStab(p)
	for n := 1; n <= p; n++ {
		starts := allSelfStabStarts(pr, n)
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		verdict := g.CheckWeak(explore.Naming)
		if !verdict.OK {
			t.Fatalf("N=%d: %s", n, verdict)
		}
		t.Logf("Proposition 16 verified at P=%d, N=%d over %d configurations", p, n, verdict.Explored)
	}
}

// TestSelfStabModelCheckWeakP4 verifies Proposition 16 at P = N = 4:
// all 5^4 mobile starts x all 102 leader states (63,750 starting
// configurations). Skipped with -short.
func TestSelfStabModelCheckWeakP4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive P=4 check skipped in -short mode")
	}
	const p = 4
	pr := NewSelfStab(p)
	starts := allSelfStabStarts(pr, p)
	g, err := explore.Build(pr, starts, explore.Options{MaxNodes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	verdict := g.CheckWeak(explore.Naming)
	if !verdict.OK {
		t.Fatalf("%s", verdict)
	}
	t.Logf("Proposition 16 verified at P=N=%d over %d configurations (%d starts)",
		p, verdict.Explored, len(starts))
}

// allSelfStabStarts enumerates every (mobile states, leader state)
// combination within the declared variable domains.
func allSelfStabStarts(pr *SelfStab, n int) []*core.Config {
	p := pr.P()
	q := pr.States()
	var leaders []core.LeaderState
	for nn := 0; nn <= p+1; nn++ {
		for k := 0; k <= seq.Len(p)+1; k++ {
			leaders = append(leaders, ResetBST{N: nn, K: k})
		}
	}
	total := 1
	for i := 0; i < n; i++ {
		total *= q
	}
	var out []*core.Config
	states := make([]core.State, n)
	for code := 0; code < total; code++ {
		c := code
		for i := range states {
			states[i] = core.State(c % q)
			c /= q
		}
		for _, l := range leaders {
			out = append(out, core.NewConfigStates(states...).WithLeader(l))
		}
	}
	return out
}

// TestSelfStabRecoversFromCorruption: converge, corrupt, re-converge —
// the operational meaning of self-stabilization. Five times, at each
// detected convergence, the leader and three agents are corrupted; the
// configuration every epoch converged to, read by the injector before
// it corrupts, must be a valid naming, and so must the final one.
func TestSelfStabRecoversFromCorruption(t *testing.T) {
	const p = 6
	pr := NewSelfStab(p)
	cfg := sim.ArbitraryConfig(pr, p, rand.New(rand.NewSource(33)))
	plan, err := fault.Parse(strings.Repeat("@conv:leader+corrupt=3,", 5))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan, pr, 33)
	if err != nil {
		t.Fatal(err)
	}
	var recs faultRecs
	inj.Sink = &recs
	run := sim.NewRunner(pr, sched.NewRoundRobin(p, true), cfg)
	run.Inject = inj
	if res := run.Run(25_000_000); !res.Converged || !cfg.ValidNaming() || !inj.Exhausted() {
		t.Fatalf("failed to recover from %d of 5 faults: %s", len(inj.Fired())/2, res)
	}
	if len(recs) != 10 {
		t.Fatalf("journaled %d fault records, want 10 (5 groups of 2)", len(recs))
	}
	for i, r := range recs {
		if r.ValidNaming == nil || !*r.ValidNaming {
			t.Errorf("record %d: epoch %d not recorded as a valid naming", i, i/2)
		}
	}
}

// faultRecs is an obs.Sink collecting an injector's fault records.
type faultRecs []obs.FaultRec

func (f *faultRecs) Emit(rec any) error {
	*f = append(*f, rec.(obs.FaultRec))
	return nil
}

func TestResetBSTLeaderState(t *testing.T) {
	a := ResetBST{N: 1, K: 5}
	if !a.Equal(a.Clone()) || a.Equal(ResetBST{N: 1, K: 6}) || a.Equal(nil) {
		t.Error("bad equality semantics")
	}
	if got := string(a.AppendKey([]byte("x|"))); got != "x|n=1;k=5" {
		t.Errorf("AppendKey = %q, want x|n=1;k=5", got)
	}
	if string(a.AppendKey(nil)) == string((ResetBST{N: 5, K: 1}).AppendKey(nil)) {
		t.Error("key collision")
	}
}

func TestSelfStabRandomLeaderInDomain(t *testing.T) {
	pr := NewSelfStab(4)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		l := pr.RandomLeader(r).(ResetBST)
		if l.N < 0 || l.N > 5 || l.K < 0 || l.K > seq.Len(4)+1 {
			t.Fatalf("leader state out of domain: %v", l)
		}
	}
}
