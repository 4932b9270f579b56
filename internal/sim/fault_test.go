package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

func mustPlan(t testing.TB, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustInjector(t testing.TB, plan *fault.Plan, pr core.Protocol, seed int64) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(plan, pr, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestResyncAfterExternalCorruption is the census-desync regression: a
// converged compiled runner whose configuration is mutated from outside
// keeps reporting silence from its stale census until Resync, after
// which it agrees with the exhaustive interface-dispatch scan.
func TestResyncAfterExternalCorruption(t *testing.T) {
	const n = 8
	pr := naming.NewAsymmetric(n)
	cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(11)))
	run := NewRunner(pr, sched.NewRandom(n, false, 11), cfg)
	if !run.Compiled() {
		t.Fatal("compiled engine unavailable")
	}
	if res := run.Run(10_000_000); !res.Converged {
		t.Fatalf("no convergence: %s", res)
	}

	// Duplicate a name behind the runner's back: the naming is invalid
	// and a non-null encounter is schedulable again.
	cfg.Mobile[0] = cfg.Mobile[1]
	if core.Silent(pr, cfg) {
		t.Fatal("duplicated name should reactivate the protocol")
	}
	if !run.Silent() {
		t.Fatal("stale census noticed the mutation without Resync (regression baseline changed)")
	}

	run.Resync()
	if run.Silent() != core.Silent(pr, cfg) {
		t.Fatal("resynced runner disagrees with the exhaustive silence scan")
	}
	if res := run.Run(10_000_000); !res.Converged || !cfg.ValidNaming() {
		t.Fatalf("no re-convergence after Resync: %s", res)
	}
}

// TestResyncOutOfDomainFallsBack: a mutation outside the compiled
// table's state domain drops the runner to the interface path instead of
// corrupting the census.
func TestResyncOutOfDomainFallsBack(t *testing.T) {
	// Table protocol with 2 states; inject state 7 by hand.
	pr := core.NewRuleTable("tiny", 4, 2).AddSymmetric(0, 0, 1, 1)
	cfg := core.NewConfigStates(0, 0, 0, 0)
	run := NewRunner(pr, sched.NewRoundRobin(4, false), cfg)
	if !run.Compiled() {
		t.Fatal("compiled engine unavailable")
	}
	cfg.Mobile[0] = 7
	run.Resync()
	if run.Compiled() {
		t.Fatal("runner kept the compiled engine for an out-of-domain state")
	}
}

// TestFaultOmitBurst: an omission burst suppresses exactly Arg
// interactions — they consume steps and count as null — before normal
// stepping resumes.
func TestFaultOmitBurst(t *testing.T) {
	const n = 6
	pr := naming.NewAsymmetric(n)
	cfg := zeroStart(n)
	run := NewRunner(pr, sched.NewRoundRobin(n, false), cfg)
	run.Inject = mustInjector(t, mustPlan(t, "@0:omit=25"), pr, 1)

	res := run.Run(25)
	if res.NonNull != 0 || res.Steps != 25 {
		t.Fatalf("omission burst leaked transitions: %s", res)
	}
	res = run.Run(1_000_000)
	if !res.Converged || res.NonNull == 0 || !cfg.ValidNaming() {
		t.Fatalf("no convergence after the burst: %s", res)
	}
}

// zeroStart is the all-zero (maximally clashing) leaderless start.
func zeroStart(n int) *core.Config {
	return core.NewConfig(n, 0)
}

// TestFaultCrashWedgesAndChurnRevives: crashing an agent suppresses all
// its interactions (freezing its state); churning the population revives
// it and the run converges.
func TestFaultCrashWedgesAndChurnRevives(t *testing.T) {
	const n = 2
	pr := naming.NewAsymmetric(n)
	cfg := zeroStart(n) // (0,0): one active pair, needs both agents

	// Crash only: with one of two agents down, every pair is suppressed
	// and the run can never converge.
	run := NewRunner(pr, sched.NewRoundRobin(n, false), cfg)
	inj := mustInjector(t, mustPlan(t, "@0:crash=1"), pr, 2)
	run.Inject = inj
	res := run.Run(50_000)
	if res.Converged || res.NonNull != 0 {
		t.Fatalf("crashed pair still interacted: %s", res)
	}
	if inj.NumCrashed() != 1 {
		t.Fatalf("NumCrashed = %d", inj.NumCrashed())
	}

	// Crash then churn-all: the churn revives the crashed agent (and
	// resets states to initial), after which convergence succeeds.
	cfg2 := zeroStart(n)
	run2 := NewRunner(pr, sched.NewRoundRobin(n, false), cfg2)
	inj2 := mustInjector(t, mustPlan(t, "@0:crash=1,@100:churn=2"), pr, 2)
	run2.Inject = inj2
	res = run2.Run(1_000_000)
	if !res.Converged || !cfg2.ValidNaming() {
		t.Fatalf("churn did not revive the population: %s", res)
	}
	if inj2.NumCrashed() != 0 {
		t.Fatalf("NumCrashed after churn = %d", inj2.NumCrashed())
	}
	if got := len(inj2.Fired()); got != 2 {
		t.Fatalf("fired %d events, want 2", got)
	}
}

// TestFaultStepTriggerDelaysConvergence: a silent population is not
// terminal while step-triggered events are pending — the run idles (null
// interactions) toward the trigger, fires it, and re-converges.
func TestFaultStepTriggerDelaysConvergence(t *testing.T) {
	const n = 6
	pr := naming.NewAsymmetric(n)
	cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(3)))
	run := NewRunner(pr, sched.NewRandom(n, false, 3), cfg)
	inj := mustInjector(t, mustPlan(t, "@50000:corrupt=3"), pr, 3)
	run.Inject = inj

	res := run.Run(10_000_000)
	if !res.Converged || !cfg.ValidNaming() {
		t.Fatalf("no re-convergence: %s", res)
	}
	if res.Steps <= 50_000 {
		t.Fatalf("converged at step %d, before the pending @50000 trigger", res.Steps)
	}
	fired := inj.Fired()
	if len(fired) != 1 || fired[0].Step != 50_000 {
		t.Fatalf("fired = %v", fired)
	}
}

// TestFaultConvEpochs: a plan with E convergence-triggered events spans
// exactly E fault epochs, each firing at a distinct detected
// convergence, and the final configuration is a valid naming again.
func TestFaultConvEpochs(t *testing.T) {
	const n = 8
	pr := naming.NewSelfStab(n)
	cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(4)))
	run := NewRunner(pr, sched.NewRandom(n, true, 4), cfg)
	inj := mustInjector(t, mustPlan(t, "@conv:corrupt=2,@conv:corrupt=2,@conv:leader=1"), pr, 4)
	run.Inject = inj

	res := run.Run(200_000_000)
	if !res.Converged || !cfg.ValidNaming() {
		t.Fatalf("multi-epoch run failed: %s", res)
	}
	fired := inj.Fired()
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].Step <= fired[i-1].Step {
			t.Fatalf("epoch boundaries not increasing: %v", fired)
		}
	}
	if !inj.Exhausted() {
		t.Fatal("plan not exhausted at convergence")
	}
}

// TestFaultConvGroup: a conv group fires whole at one detected
// convergence — every member journals its own record at one step,
// each carrying the validity of the configuration the epoch converged
// to — and the next epoch gets a full quiet window before its first
// silence check. The reboot restores globalp's initialized leader, so
// every epoch re-converges to a valid naming.
func TestFaultConvGroup(t *testing.T) {
	const n = 5
	pr := naming.NewGlobalP(6)
	cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(3)))
	run := NewRunner(pr, sched.NewRandom(n, true, 4), cfg)
	inj := mustInjector(t, mustPlan(t, "@conv:reboot+corrupt=2,@conv:reboot+corrupt=2"), pr, 3)
	sink := &recSink{}
	inj.Sink = sink
	run.Inject = inj

	res := run.Run(50_000_000)
	if !res.Converged || !cfg.ValidNaming() {
		t.Fatalf("run failed: %s", res)
	}
	var recs []obs.FaultRec
	for _, r := range sink.recs {
		recs = append(recs, r.(obs.FaultRec))
	}
	if len(recs) != 4 {
		t.Fatalf("journaled %d fault records, want 4: %+v", len(recs), recs)
	}
	for i, r := range recs {
		if want := []string{"reboot", "corrupt"}[i%2]; r.Kind != want || r.Trigger != "conv" {
			t.Errorf("record %d: %s/%s, want %s/conv", i, r.Kind, r.Trigger, want)
		}
		if r.ValidNaming == nil || !*r.ValidNaming {
			t.Errorf("record %d: validNaming %v, want true", i, r.ValidNaming)
		}
	}
	if recs[0].Step != recs[1].Step || recs[2].Step != recs[3].Step {
		t.Errorf("a group fired over several steps: %+v", recs)
	}
	if gap := recs[2].Step - recs[1].Step; gap < int64(QuietWindow(n)) {
		t.Errorf("next group fired %d steps after the first, inside one quiet window (%d)", gap, QuietWindow(n))
	}
}

// TestInjectorCapabilityValidation: plans demanding capabilities the
// protocol lacks are rejected at construction, not mid-run.
func TestInjectorCapabilityValidation(t *testing.T) {
	// Leaderless table protocol: no RandomMobile, no RandomLeader.
	pr := core.NewRuleTable("tiny", 4, 2).AddSymmetric(0, 0, 1, 1)
	if _, err := fault.NewInjector(mustPlan(t, "@conv:corrupt=1"), pr, 1); err == nil {
		t.Error("corrupt plan accepted without RandomMobile")
	}
	if _, err := fault.NewInjector(mustPlan(t, "@conv:leader=1"), pr, 1); err == nil {
		t.Error("leader plan accepted without RandomLeader")
	}
	if _, err := fault.NewInjector(mustPlan(t, "@conv:reboot+corrupt=1"), naming.NewAsymmetric(4), 1); err == nil {
		t.Error("reboot plan accepted for a leaderless protocol")
	}
	// Crash/churn/omit need no capabilities.
	if _, err := fault.NewInjector(mustPlan(t, "@0:crash=1,@1:churn=1,@2:omit=1"), pr, 1); err != nil {
		t.Errorf("capability-free plan rejected: %v", err)
	}
	// GlobalP has RandomMobile but not RandomLeader.
	gp := naming.NewGlobalP(4)
	if _, err := fault.NewInjector(mustPlan(t, "@conv:corrupt=1"), gp, 1); err != nil {
		t.Errorf("corrupt plan rejected for globalp: %v", err)
	}
	if _, err := fault.NewInjector(mustPlan(t, "@conv:leader=1"), gp, 1); err == nil {
		t.Error("leader plan accepted for globalp (leader must stay initialized)")
	}
}

// TestSuperviseStallRetry: a crashed-agent wedge stalls the quiet-streak
// detector; the retry rebuilds the runner (here without the crash) and
// completes, classifying the trial as retried.
func TestSuperviseStallRetry(t *testing.T) {
	const n = 2
	pr := naming.NewAsymmetric(n)
	sup := Supervision{StepBudget: 10_000_000, StallQuiet: 1024, Retries: 1, Slice: 4096}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner {
		cfg := zeroStart(n)
		run := NewRunner(pr, sched.NewRoundRobin(n, false), cfg)
		if attempt == 0 {
			run.Inject = mustInjector(t, mustPlan(t, "@0:crash=1"), pr, 5)
		}
		return run
	})
	if sr.Status != TrialRetried || sr.Attempts != 2 {
		t.Fatalf("status %s after %d attempts (reason %q), want retried/2", sr.Status, sr.Attempts, sr.Reason)
	}
	if !sr.Converged {
		t.Fatalf("retry did not converge: %s", sr.Result)
	}
}

// TestSuperviseStallAborts: with no retries left the stall aborts the
// trial with its partial result.
func TestSuperviseStallAborts(t *testing.T) {
	const n = 2
	pr := naming.NewAsymmetric(n)
	sup := Supervision{StepBudget: 10_000_000, StallQuiet: 1024, Slice: 4096}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner {
		cfg := zeroStart(n)
		run := NewRunner(pr, sched.NewRoundRobin(n, false), cfg)
		run.Inject = mustInjector(t, mustPlan(t, "@0:crash=1"), pr, 6)
		return run
	})
	if sr.Status != TrialAborted || sr.Reason != "stall" {
		t.Fatalf("status %s reason %q, want aborted/stall", sr.Status, sr.Reason)
	}
	if sr.Converged || sr.Steps == 0 {
		t.Fatalf("aborted result implausible: %s", sr.Result)
	}
}

// TestSuperviseDeadline: an expired wall-clock deadline aborts before
// any stepping.
func TestSuperviseDeadline(t *testing.T) {
	const n = 4
	pr := naming.NewAsymmetric(n)
	sup := Supervision{Deadline: time.Nanosecond}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner {
		return NewRunner(pr, sched.NewRoundRobin(n, false), zeroStart(n))
	})
	if sr.Status != TrialAborted || sr.Reason != "deadline" {
		t.Fatalf("status %s reason %q, want aborted/deadline", sr.Status, sr.Reason)
	}
}

// TestSuperviseOK: an untroubled run is TrialOK in one attempt, and the
// result matches an unsupervised run from the same seed (the slice
// boundaries add silence checks but asym converges identically here).
func TestSuperviseOK(t *testing.T) {
	const n = 6
	pr := naming.NewAsymmetric(n)
	sup := Supervision{StepBudget: 10_000_000}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner {
		cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(7)))
		return NewRunner(pr, sched.NewRandom(n, false, 7), cfg)
	})
	if sr.Status != TrialOK || sr.Attempts != 1 || !sr.Converged {
		t.Fatalf("status %s attempts %d converged %v", sr.Status, sr.Attempts, sr.Converged)
	}
}

func TestDeriveSeedSeparates(t *testing.T) {
	seen := make(map[int64]bool)
	for trial := 0; trial < 8; trial++ {
		for attempt := 0; attempt < 4; attempt++ {
			s := DeriveSeed(1, trial, attempt)
			if seen[s] {
				t.Fatalf("seed collision at trial %d attempt %d", trial, attempt)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

// TestRunBatchSupervisedDeadlineTagsTrials: a batch whose deadline has
// already passed tags every trial aborted without running it.
func TestRunBatchSupervisedDeadlineTagsTrials(t *testing.T) {
	const n, trials = 4, 6
	pr := naming.NewAsymmetric(n)
	sup := Supervision{Deadline: time.Nanosecond}
	sum := RunBatch(context.Background(), pr, 0, trials, 2, sup, BatchObs{}, func(trial, attempt int) Trial {
		return Trial{Cfg: zeroStart(n), Sched: sched.NewRoundRobin(n, false)}
	})
	if sum.Aborted != trials {
		t.Fatalf("Aborted = %d, want %d", sum.Aborted, trials)
	}
	for _, br := range sum.Results {
		if br.Status != TrialAborted {
			t.Fatalf("trial %d status %s", br.Trial, br.Status)
		}
	}
}

// TestRunBatchSupervisedRetries: every trial wedges on its first attempt
// and completes on retry; the summary counts them all as retried.
func TestRunBatchSupervisedRetries(t *testing.T) {
	const n, trials = 2, 4
	pr := naming.NewAsymmetric(n)
	sup := Supervision{StepBudget: 10_000_000, StallQuiet: 1024, Retries: 1, Slice: 4096}
	sum := RunBatch(context.Background(), pr, 0, trials, 2, sup, BatchObs{}, func(trial, attempt int) Trial {
		tr := Trial{Cfg: zeroStart(n), Sched: sched.NewRoundRobin(n, false)}
		if attempt == 0 {
			tr.Inject = mustInjector(t, mustPlan(t, "@0:crash=1"), pr, DeriveSeed(8, trial, attempt))
		}
		return tr
	})
	if sum.Retried != trials || sum.Converged != trials || sum.Aborted != 0 {
		t.Fatalf("retried %d converged %d aborted %d, want %d/%d/0",
			sum.Retried, sum.Converged, sum.Aborted, trials, trials)
	}
}

// TestSuperviseContextCancel is the cancellation regression: a run that
// would otherwise idle for billions of steps (converged, but with a
// far-future fault event keeping the plan unexhausted) must abort with
// reason "canceled" and a partial result within one supervision check
// of the context cancel — not hang until the step budget runs out.
func TestSuperviseContextCancel(t *testing.T) {
	const n = 4
	pr := naming.NewAsymmetric(n)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan SupervisedResult, 1)
	go func() {
		sup := Supervision{StepBudget: 1 << 31}
		done <- Supervise(ctx, sup, func(attempt int) *Runner {
			run := NewRunner(pr, sched.NewRandom(n, false, 9), zeroStart(n))
			run.Inject = mustInjector(t, mustPlan(t, "@999999999999:corrupt=1"), pr, 9)
			return run
		})
	}()
	select {
	case sr := <-done:
		if sr.Status != TrialAborted || sr.Reason != "canceled" {
			t.Fatalf("status %s reason %q, want aborted/canceled", sr.Status, sr.Reason)
		}
		if sr.Steps == 0 {
			t.Fatal("canceled run reports no partial progress")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled supervision hung")
	}
}

// TestSuperviseCanceledBeforeStart: a context canceled before the first
// attempt aborts without ever building a runner.
func TestSuperviseCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built := false
	sr := Supervise(ctx, Supervision{}, func(attempt int) *Runner {
		built = true
		return NewRunner(naming.NewAsymmetric(2), sched.NewRoundRobin(2, false), zeroStart(2))
	})
	if sr.Status != TrialAborted || sr.Reason != "canceled" || sr.Attempts != 0 {
		t.Fatalf("status %s reason %q attempts %d, want aborted/canceled/0", sr.Status, sr.Reason, sr.Attempts)
	}
	if built {
		t.Fatal("runner built despite pre-canceled context")
	}
}

// TestRunBatchSupervisedContextCancel: trials claimed after the cancel
// are tagged aborted/"canceled" without running.
func TestRunBatchSupervisedContextCancel(t *testing.T) {
	const n, trials = 4, 6
	pr := naming.NewAsymmetric(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum := RunBatch(ctx, pr, 0, trials, 2, Supervision{}, BatchObs{}, func(trial, attempt int) Trial {
		return Trial{Cfg: zeroStart(n), Sched: sched.NewRoundRobin(n, false)}
	})
	if sum.Aborted != trials {
		t.Fatalf("Aborted = %d, want %d", sum.Aborted, trials)
	}
	for _, br := range sum.Results {
		if br.Reason != "canceled" {
			t.Fatalf("trial %d reason %q, want canceled", br.Trial, br.Reason)
		}
	}
}
