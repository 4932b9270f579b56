package sim

import (
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/fault"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
	"popnaming/internal/trace"
)

func TestRunnerAlreadySilent(t *testing.T) {
	pr := naming.NewAsymmetric(3)
	cfg := core.NewConfigStates(0, 1, 2)
	res := NewRunner(pr, sched.NewRoundRobin(3, false), cfg).Run(1000)
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("already-silent start: %s", res)
	}
}

func TestRunnerBudgetExhausted(t *testing.T) {
	// The black/white swap component never terminates: two agents
	// swapping forever.
	pr := core.NewRuleTable("swap", 2, 2).AddSymmetric(0, 1, 1, 0)
	cfg := core.NewConfigStates(0, 1)
	res := NewRunner(pr, sched.NewRoundRobin(2, false), cfg).Run(5000)
	if res.Converged {
		t.Fatalf("perpetual swap reported converged: %s", res)
	}
	if res.Steps != 5000 {
		t.Fatalf("Steps = %d, want 5000", res.Steps)
	}
	if res.NonNull != 5000 {
		t.Fatalf("NonNull = %d, want 5000 (every swap changes state)", res.NonNull)
	}
}

func TestRunnerLeaderMismatchPanics(t *testing.T) {
	pr := naming.NewGlobalP(3)
	cfg := core.NewConfigStates(0, 1, 2) // missing leader
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on leader mismatch")
		}
	}()
	NewRunner(pr, sched.NewRoundRobin(3, true), cfg)
}

func TestRunnerOnStepEvents(t *testing.T) {
	pr := naming.NewAsymmetric(4)
	cfg := core.NewConfigStates(0, 0, 0, 0)
	var col trace.Collector
	run := NewRunner(pr, sched.NewRoundRobin(4, false), cfg)
	run.OnStep = col.Record
	res := run.Run(100000)
	if !res.Converged {
		t.Fatal(res)
	}
	if col.Len() != res.Steps {
		t.Fatalf("recorded %d events for %d steps", col.Len(), res.Steps)
	}
	if col.NonNullCount() != res.NonNull {
		t.Fatalf("recorded %d non-null for %d", col.NonNullCount(), res.NonNull)
	}
	for i, e := range col.Events() {
		if e.Step != i {
			t.Fatalf("event %d has Step %d", i, e.Step)
		}
	}
}

func TestRunnerStepCounts(t *testing.T) {
	pr := naming.NewAsymmetric(2)
	cfg := core.NewConfigStates(0, 0)
	run := NewRunner(pr, sched.NewRoundRobin(2, false), cfg)
	run.Step()
	if run.Steps() != 1 {
		t.Fatalf("Steps = %d", run.Steps())
	}
	if run.NonNull() != 1 {
		t.Fatalf("NonNull = %d (first (0,0) interaction must fire)", run.NonNull())
	}
}

func TestResultParallelTime(t *testing.T) {
	r := Result{Steps: 1000}
	if got := r.ParallelTime(10); got != 100 {
		t.Fatalf("ParallelTime = %v", got)
	}
	if got := r.ParallelTime(0); got != 0 {
		t.Fatalf("ParallelTime(0) = %v", got)
	}
}

func TestUniformConfigHonorsProtocol(t *testing.T) {
	il := naming.NewInitLeader(5)
	cfg := UniformConfig(il, 4)
	for _, s := range cfg.Mobile {
		if s != il.InitMobile() {
			t.Fatalf("mobile state %d, want %d", s, il.InitMobile())
		}
	}
	if cfg.Leader == nil || !cfg.Leader.Equal(il.InitLeader()) {
		t.Fatal("leader not initialized")
	}

	// Leaderless protocol without a uniform-init declaration: state 0,
	// no leader.
	asym := naming.NewAsymmetric(5)
	cfg2 := UniformConfig(asym, 4)
	if cfg2.Leader != nil {
		t.Fatal("unexpected leader")
	}
	for _, s := range cfg2.Mobile {
		if s != 0 {
			t.Fatalf("default uniform state %d, want 0", s)
		}
	}
}

func TestArbitraryConfigLeaderPolicy(t *testing.T) {
	r := rand.New(rand.NewSource(1))

	// Protocol 2 supports arbitrary leader states.
	ss := naming.NewSelfStab(4)
	sawNonInit := false
	for i := 0; i < 50; i++ {
		cfg := ArbitraryConfig(ss, 4, r)
		if cfg.Leader == nil {
			t.Fatal("missing leader")
		}
		if !cfg.Leader.Equal(ss.InitLeader()) {
			sawNonInit = true
		}
	}
	if !sawNonInit {
		t.Error("arbitrary leader never deviated from the initialized state")
	}

	// Protocol 3's leader must stay initialized.
	gp := naming.NewGlobalP(4)
	for i := 0; i < 10; i++ {
		cfg := ArbitraryConfig(gp, 4, r)
		if !cfg.Leader.Equal(gp.InitLeader()) {
			t.Fatal("Protocol 3 leader must be initialized")
		}
	}

	// Leaderless.
	cfg := ArbitraryConfig(naming.NewAsymmetric(4), 4, r)
	if cfg.Leader != nil {
		t.Fatal("unexpected leader on leaderless protocol")
	}
}

func TestArbitraryConfigCoversStateSpace(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pr := naming.NewSymGlobal(3) // 4 states
	seen := make(map[core.State]bool)
	for i := 0; i < 200; i++ {
		for _, s := range ArbitraryConfig(pr, 4, r).Mobile {
			seen[s] = true
		}
	}
	if len(seen) != pr.States() {
		t.Fatalf("arbitrary init covered %d states, want %d", len(seen), pr.States())
	}
}

// TestCorrupt: a conv group "leader+corrupt=2" rewrites the leader and
// at most two agents of a configuration.
func TestCorrupt(t *testing.T) {
	pr := naming.NewSelfStab(5)
	cfg := UniformConfig(pr, 5)
	orig := cfg.Clone()
	inj := mustInjector(t, mustPlan(t, "@conv:leader+corrupt=2"), pr, 3)
	if fired, mutated := inj.FireConv(0, cfg); !fired || !mutated || !inj.Exhausted() {
		t.Fatalf("group fired %v, mutated %v, exhausted %v", fired, mutated, inj.Exhausted())
	}
	changedAgents := 0
	for i := range cfg.Mobile {
		if cfg.Mobile[i] != orig.Mobile[i] {
			changedAgents++
		}
	}
	if changedAgents > 2 {
		t.Fatalf("corrupted %d agents, asked for at most 2", changedAgents)
	}
}

// TestCorruptGuards: corruption clamps to the population instead of
// failing, and leader corruption of a protocol whose leader must stay
// initialized is rejected when the injector is built.
func TestCorruptGuards(t *testing.T) {
	pr := naming.NewSelfStab(3)
	cfg := UniformConfig(pr, 3)
	inj := mustInjector(t, mustPlan(t, "@0:corrupt=4"), pr, 4)
	if !inj.FireDue(0, cfg) || len(inj.Fired()) != 1 {
		t.Fatal("oversized corruption did not fire")
	}
	if _, err := fault.NewInjector(mustPlan(t, "@0:leader"), naming.NewGlobalP(3), 4); err == nil {
		t.Error("leader corruption accepted for globalp")
	}
}

func TestQuietThresholdOverride(t *testing.T) {
	pr := counting.New(4)
	r := rand.New(rand.NewSource(5))
	cfg := ArbitraryConfig(pr, 3, r)
	run := NewRunner(pr, sched.NewRoundRobin(3, true), cfg)
	run.QuietThreshold = 1 // aggressive silence checking still correct
	res := run.Run(1_000_000)
	if !res.Converged || !cfg.ValidNaming() {
		t.Fatalf("%s", res)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Converged: true, Steps: 10, NonNull: 3, Final: core.NewConfigStates(1, 2)}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}
