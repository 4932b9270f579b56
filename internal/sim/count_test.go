package sim

import (
	"context"
	"sync"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/obs"
)

// mergeProto is a 3-state converging protocol for count-engine tests:
// only (0, 1) encounters are non-null, rewriting both sides to 2, so a
// {0:k, 1:k} start drains into 2s and goes silent once either side is
// exhausted.
func mergeProto() core.Protocol {
	return core.NewRuleTable("merge", 3, 3).AddSymmetric(0, 1, 2, 2)
}

// churnProto is a q-state protocol that never goes silent for N > q:
// two agents of one state push one of them a state forward (mod q), so
// some diagonal pair is always schedulable and non-null.
func churnProto(q int) core.Protocol {
	t := core.NewRuleTable("churn", q, q)
	for i := 0; i < q; i++ {
		t.Add(core.State(i), core.State(i), core.State(i), core.State((i+1)%q))
	}
	return t
}

// oversized is a protocol whose state space exceeds the compiled-table
// cap, which the count engine must reject (it has no interpreted path).
type oversized struct{}

func (oversized) Name() string                                    { return "oversized" }
func (oversized) P() int                                          { return 4096 }
func (oversized) States() int                                     { return maxCompiledStates + 1 }
func (oversized) Symmetric() bool                                 { return true }
func (oversized) Mobile(x, y core.State) (core.State, core.State) { return x, y }

func checkProportional(t *testing.T, name string, s *fenwickSampler, rng *countRNG, counts []int, draws int) {
	t.Helper()
	n := 0
	for _, c := range counts {
		n += c
	}
	freq := make([]int, len(counts))
	for i := 0; i < draws; i++ {
		freq[s.draw(rng)]++
	}
	for st, c := range counts {
		want := float64(draws) * float64(c) / float64(n)
		got := float64(freq[st])
		if c == 0 {
			if freq[st] != 0 {
				t.Fatalf("%s: drew empty state %d (%d times)", name, st, freq[st])
			}
			continue
		}
		// 5 sigma on a binomial with p = c/n.
		p := float64(c) / float64(n)
		sigma := 5 * sqrtf(float64(draws)*p*(1-p))
		if got < want-sigma || got > want+sigma {
			t.Errorf("%s: state %d drawn %v times, want %v ± %v", name, st, got, want, sigma)
		}
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestCountSamplerProportional(t *testing.T) {
	counts := []int{5, 0, 3, 2}
	t.Run("fenwick", func(t *testing.T) {
		local := append([]int(nil), counts...)
		s := newFenwickSampler(local, 10)
		rng := newCountRNG(42)
		checkProportional(t, "fenwick", s, &rng, local, 50000)

		// Mutate (conserving N) and sync: 0 → 1 twice, 2 → 3 once.
		local[0] -= 2
		local[1] += 2
		local[2]--
		local[3]++
		for st := range local {
			s.sync(core.State(st))
		}
		checkProportional(t, "fenwick/after-sync", s, &rng, local, 50000)
	})
}

func TestCountRunnerConverges(t *testing.T) {
	pr := mergeProto()
	t.Run("fenwick", func(t *testing.T) {
		cc := core.NewCountConfig(3)
		cc.Counts[0], cc.Counts[1] = 50, 50
		r, err := NewCountRunner(pr, cc, 123)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("did not converge: %v", res)
		}
		if cc.N() != 100 {
			t.Fatalf("population not conserved: %d", cc.N())
		}
		if cc.Counts[0] != 0 && cc.Counts[1] != 0 {
			t.Fatalf("silent but both 0 and 1 occupied: %v", cc)
		}
		if res.NonNull == 0 || res.Steps < res.NonNull {
			t.Fatalf("implausible counters: %v", res)
		}
	})
}

func TestCountRunnerSilentStart(t *testing.T) {
	pr := mergeProto()
	cc := core.NewCountConfig(3)
	cc.Counts[2] = 10 // all-2 is silent
	r, err := NewCountRunner(pr, cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps != 0 {
		t.Fatalf("silent start should converge in 0 steps: %v", res)
	}
}

func TestCountRunnerConservesN(t *testing.T) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = 1000
	r, err := NewCountRunner(pr, cc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ensure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		r.step()
		if i%1000 == 0 && cc.N() != 1000 {
			t.Fatalf("step %d: population drifted to %d", i, cc.N())
		}
	}
	if cc.N() != 1000 {
		t.Fatalf("population drifted to %d", cc.N())
	}
}

// TestDrawResponderExcludesSoleAgent pins the diagonal correction: when
// the initiator's state has a single agent, the responder can never be
// that state (there is no second agent to meet).
func TestDrawResponderExcludesSoleAgent(t *testing.T) {
	pr := churnProto(4)
	cc := core.NewCountConfig(4)
	cc.Counts[0], cc.Counts[1] = 1, 9
	r, err := NewCountRunner(pr, cc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ensure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if q := r.drawResponder(0); q == 0 {
			t.Fatal("responder collided with the sole agent of state 0")
		}
	}
}

func TestNewCountRunnerErrors(t *testing.T) {
	pr := mergeProto()
	cases := []struct {
		name string
		pr   core.Protocol
		cc   *core.CountConfig
	}{
		{"leader mismatch", pr, &core.CountConfig{Counts: []int{2, 0, 0}, Leader: nil}},
		{"length mismatch", pr, &core.CountConfig{Counts: []int{2, 0}}},
		{"negative count", pr, &core.CountConfig{Counts: []int{2, -1, 0}}},
		{"too small", pr, &core.CountConfig{Counts: []int{1, 0, 0}}},
		{"oversized table", oversized{}, core.NewCountConfig(maxCompiledStates + 1)},
	}
	// Leader mismatch needs the opposite arrangement: a leaderless
	// protocol with a leader state is awkward to fake, so test the
	// protocol-with-leader side through the config having none — merge
	// has no leader, so attach an impossible one via a non-nil Leader.
	cases[0].cc.Leader = fakeLeader{}
	for _, c := range cases {
		if _, err := NewCountRunner(c.pr, c.cc, 1); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}

	// Population past the uint64 pair-weight bound must error cleanly.
	big := core.NewCountConfig(3)
	big.Counts[0] = core.MaxCountN + 1
	if _, err := NewCountRunner(pr, big, 1); err == nil {
		t.Error("overflow population: want error, got nil")
	}
}

type fakeLeader struct{}

func (fakeLeader) Clone() core.LeaderState       { return fakeLeader{} }
func (fakeLeader) Equal(o core.LeaderState) bool { _, ok := o.(fakeLeader); return ok }
func (fakeLeader) Key() string                   { return "fake" }
func (fakeLeader) String() string                { return "fake" }

func TestCountRunnerInterrupt(t *testing.T) {
	pr := churnProto(8)
	cc := core.NewCountConfig(8)
	cc.Counts[0] = 100
	r, err := NewCountRunner(pr, cc, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.Interrupt = func() bool { return true }
	res, err := r.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Steps != 0 {
		t.Fatalf("immediate interrupt should stop at step 0: %v", res)
	}
}

type recSink struct{ recs []any }

func (s *recSink) Emit(rec any) error { s.recs = append(s.recs, rec); return nil }

func TestCountRunnerObserver(t *testing.T) {
	pr := mergeProto()
	cc := core.NewCountConfig(3)
	cc.Counts[0], cc.Counts[1] = 30, 30
	r, err := NewCountRunner(pr, cc, 17)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	r.Obs = obs.NewObserver(60, false, obs.ObserverOptions{
		Sink:          sink,
		ProgressEvery: 500,
		NoPairs:       true,
	})
	res, err := r.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	var progress, census int
	var sum *obs.Summary
	for _, rec := range sink.recs {
		switch v := rec.(type) {
		case obs.Progress:
			progress++
		case obs.CensusRec:
			census++
			total := 0
			for _, c := range v.Counts {
				total += c
			}
			if total != 60 {
				t.Fatalf("census record counts sum to %d, want 60", total)
			}
		case obs.Summary:
			sum = &v
		}
	}
	if progress == 0 || census == 0 {
		t.Fatalf("expected progress and census records, got %d/%d", progress, census)
	}
	if census != progress {
		t.Fatalf("every progress emission should carry a census: %d progress, %d census", progress, census)
	}
	if sum == nil {
		t.Fatal("no summary record")
	}
	if !sum.Converged || sum.Steps != uint64(res.Steps) || sum.NonNull != uint64(res.NonNull) {
		t.Fatalf("summary disagrees with result: %+v vs %v", sum, res)
	}
	if len(sum.Rules) == 0 {
		t.Fatal("summary has no rule accounting")
	}
}

// countTrials returns a batch trial maker over fresh {0:k, 1:k} starts
// of mergeProto, seeded per trial.
func countTrials(k int) func(trial, attempt int) Trial {
	return func(trial, attempt int) Trial {
		cc := core.NewCountConfig(3)
		cc.Counts[0], cc.Counts[1] = k, k
		return Trial{Count: cc, Seed: DeriveSeed(900, trial, attempt) + 1}
	}
}

func TestRunCountBatch(t *testing.T) {
	pr := mergeProto()
	sink := &syncSink{}
	sum := RunBatch(context.Background(), pr, 0, 8, 4, Supervision{StepBudget: 10_000_000},
		BatchObs{Sink: sink, ProgressEvery: 1000}, countTrials(40))
	if sum.Trials != 8 || sum.Converged != 8 || sum.Aborted != 0 {
		t.Fatalf("batch summary: %+v", sum)
	}
	for _, br := range sum.Results {
		if br.Err != nil {
			t.Fatalf("trial %d: %v", br.Trial, br.Err)
		}
		if !br.Result.Converged {
			t.Fatalf("trial %d did not converge", br.Trial)
		}
	}
	rec := sum.Record()
	if rec.Type != "batch_summary" || rec.Trials != 8 || rec.Converged != 8 {
		t.Fatalf("batch record: %+v", rec)
	}
	var batchRecs int
	for _, r := range sink.take() {
		if _, ok := r.(obs.BatchSummaryRec); ok {
			batchRecs++
		}
	}
	if batchRecs != 1 {
		t.Fatalf("want exactly one batch_summary record, got %d", batchRecs)
	}

	// A canceled context aborts unclaimed trials.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum = RunBatch(ctx, pr, 0, 5, 2, Supervision{StepBudget: 1000}, BatchObs{}, countTrials(10))
	if sum.Aborted != 5 {
		t.Fatalf("canceled batch: %d aborted, want 5", sum.Aborted)
	}
}

// TestRunCountBatchCancelInFlight is the in-flight cancellation
// regression: a count trial whose run stops at the interrupt poll is
// aborted/"canceled", like the unclaimed trials after it, not reported
// as completed.
func TestRunCountBatchCancelInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mk := countTrials(1000)
	sum := RunBatch(ctx, churnProto(3), 0, 3, 1, Supervision{StepBudget: 1 << 30}, BatchObs{}, func(trial, attempt int) Trial {
		if trial == 0 {
			cancel()
		}
		return mk(trial, attempt)
	})
	if sum.Aborted != 3 {
		t.Fatalf("aborted = %d, want 3", sum.Aborted)
	}
	for _, br := range sum.Results {
		if br.Status != TrialAborted || br.Reason != "canceled" {
			t.Fatalf("trial %d: status %s reason %q, want aborted/canceled", br.Trial, br.Status, br.Reason)
		}
	}
}

func TestUniformCountConfigMatchesAgent(t *testing.T) {
	pr := mergeProto()
	agent := UniformConfig(pr, 25)
	folded, err := core.CountsOf(agent, pr.States())
	if err != nil {
		t.Fatal(err)
	}
	direct := UniformCountConfig(pr, 25)
	for s := range folded.Counts {
		if folded.Counts[s] != direct.Counts[s] {
			t.Fatalf("state %d: folded %d != direct %d", s, folded.Counts[s], direct.Counts[s])
		}
	}
}

// syncSink is a concurrency-safe record sink for batch tests.
type syncSink struct {
	mu   sync.Mutex
	recs []any
}

func (s *syncSink) Emit(rec any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	return nil
}

func (s *syncSink) take() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}
