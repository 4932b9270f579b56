package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/rng"
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

// denseProto is a q-state protocol in which every ordered pair is
// non-null: the initiator steps forward (mod q), so every schedulable
// pair, the diagonal included, is a candidate draw.
func denseProto(q int) core.Protocol {
	t := core.NewRuleTable("dense", q, q)
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			t.Add(core.State(x), core.State(y), core.State((x+1)%q), core.State(y))
		}
	}
	return t
}

// readyCountRunner builds a count runner over counts and its weights.
func readyCountRunner(t testing.TB, pr core.Protocol, counts []int, leader core.LeaderState, seed int64) *CountRunner {
	t.Helper()
	r, err := NewCountRunner(pr, &core.CountConfig{Counts: counts, Leader: leader}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ensure(); err != nil {
		t.Fatal(err)
	}
	return r
}

// pairWeight is the number of ordered pairs of distinct entities that
// make the non-null interaction (x, y), or the leader's with x.
func pairWeight(r *CountRunner, x, y core.State, leader bool) uint64 {
	c := r.Cfg.Counts
	switch {
	case leader:
		if c[x] == 0 || core.IsNullLeader(r.lp, r.Cfg.Leader, x) {
			return 0
		}
		return 2 * uint64(c[x])
	case r.tab.Null(x, y) || c[x] == 0:
		return 0
	case x == y:
		return uint64(c[x]) * uint64(c[x]-1)
	}
	return uint64(c[x]) * uint64(c[y])
}

// recountWeight recomputes W from the counts, the table and the
// leader: the sum of pairWeight over every interaction.
func recountWeight(r *CountRunner) uint64 {
	var w uint64
	for x := range r.Cfg.Counts {
		if r.lp != nil {
			w += pairWeight(r, core.State(x), 0, true)
		}
		for y := range r.Cfg.Counts {
			w += pairWeight(r, core.State(x), core.State(y), false)
		}
	}
	return w
}

// blockTotal checks that each block holds the sum of its rows'
// weights and that the blocks sum to mobileW, and returns that sum.
func blockTotal(t testing.TB, r *CountRunner) uint64 {
	t.Helper()
	sums := make([]uint64, len(r.blocks))
	for x, row := range r.rows {
		sums[x>>r.shift] += row.w
	}
	var total uint64
	for b, sum := range sums {
		if r.blocks[b] != sum {
			t.Fatalf("block %d holds %d, its rows sum to %d", b, r.blocks[b], sum)
		}
		total += sum
	}
	if total != r.mobileW {
		t.Fatalf("blocks sum to %d, mobileW = %d", total, r.mobileW)
	}
	return total
}

// TestCountSamplerProportional: indices uniform on [0, W) draw every
// non-null interaction in proportion to its pair weight — the
// conditional law of the next non-null interaction — and never a null
// or unschedulable one. Checked before and after count moves.
func TestCountSamplerProportional(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		r := readyCountRunner(t, denseProto(4), []int{5, 0, 3, 2}, nil, 42)
		u := newCountRNG(43)
		check := func(name string, draws int) {
			t.Helper()
			w := r.weight()
			if got := recountWeight(r); w != got || blockTotal(t, r) != got {
				t.Fatalf("%s: W = %d, recounted %d", name, w, got)
			}
			freq := map[[2]core.State]int{}
			for i := 0; i < draws; i++ {
				x, y, _ := r.pair(u.uint64n(w))
				freq[[2]core.State{x, y}]++
			}
			for x := core.State(0); x < 4; x++ {
				for y := core.State(0); y < 4; y++ {
					got, p := float64(freq[[2]core.State{x, y}]), float64(pairWeight(r, x, y, false))/float64(w)
					want, sigma := float64(draws)*p, 5*math.Sqrt(float64(draws)*p*(1-p))
					if p == 0 && got != 0 || math.Abs(got-want) > sigma {
						t.Errorf("%s: pair (%d,%d) drawn %v times, want %v ± %v", name, x, y, got, want, sigma)
					}
				}
			}
		}
		check("start", 50000)
		// Move agents by hand, conserving N: 0 → 1 twice, 2 → 3 once.
		r.move(0, -1)
		r.move(1, 1)
		r.move(0, -1)
		r.move(1, 1)
		r.move(2, -1)
		r.move(3, 1)
		check("after-move", 50000)
	})
}

// drawsSince returns how many words src has drawn since it was in
// state from, by stepping a copy of from until it equals src; -1 when
// limit steps do not get there.
func drawsSince(from rng.Source, src *rng.Source, limit int) int {
	for n := 0; n <= limit; n++ {
		if from == *src {
			return n
		}
		from.Uint64()
	}
	return -1
}

// TestCountNullRunGeometric: the null-run length is geometric with
// success probability W/T in both regimes of nullRun (pairs drawn until
// a non-null one when W ≥ ⌊T/4⌋, one inverted draw otherwise), and the
// index that comes with it is uniform on [0, W). The even fixtures sit
// just either side of the switch, and every case checks by its draw
// count which branch it took: a rejection call takes run+1 draws, an
// inverted one exactly two.
func TestCountNullRunGeometric(t *testing.T) {
	const draws = 200000
	for _, c := range []struct {
		name      string
		counts    []int
		rejection bool
	}{
		{"inverted", []int{1, 1, 30}, false},        // W/T = 2/992
		{"rejection", []int{20, 20, 0}, true},       // W/T = 800/1560
		{"inverted-even", []int{35, 35, 30}, false}, // W/T = 2450/9900 ≈ 0.2475, ⌊T/4⌋ = 2475
		{"rejection-even", []int{14, 14, 12}, true}, // W/T = 392/1560 ≈ 0.2513, ⌊T/4⌋ = 390
	} {
		t.Run(c.name, func(t *testing.T) {
			r := readyCountRunner(t, mergeProto(), c.counts, nil, 7)
			start := *r.rng.src
			w := r.weight()
			p := float64(w) / float64(r.pairs)
			var sum float64
			zeros, low := 0, 0
			for i := 0; i < draws; i++ {
				run, u := r.nullRun(w)
				if u >= w {
					t.Fatalf("index %d outside [0, %d)", u, w)
				}
				if u < w/2 {
					low++
				}
				if run == 0 {
					zeros++
				}
				sum += run
			}
			wantDraws := 2 * draws
			if c.rejection {
				wantDraws = draws + int(sum)
			}
			if got := drawsSince(start, r.rng.src, 2*wantDraws); got != wantDraws {
				t.Fatalf("%d draws (-1: over %d) for %d null runs totalling %.0f, want %d (rejection branch: %v)", got, 2*wantDraws, draws, sum, wantDraws, c.rejection)
			}
			mean, wantMean := sum/draws, (1-p)/p
			sdMean := math.Sqrt(1-p) / p / math.Sqrt(draws)
			if math.Abs(mean-wantMean) > 5*sdMean {
				t.Errorf("mean null run %.4f, want %.4f ± %.4f", mean, wantMean, 5*sdMean)
			}
			if got, sd := float64(zeros)/draws, math.Sqrt(p*(1-p)/draws); math.Abs(got-p) > 5*sd {
				t.Errorf("P(run = 0) = %.4f, want %.4f ± %.4f", got, p, 5*sd)
			}
			if got, want := float64(low)/draws, float64(w/2)/float64(w); math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/draws) {
				t.Errorf("index below W/2 with frequency %.4f, want %.4f", got, want)
			}
		})
	}
}

func TestCountRunnerConverges(t *testing.T) {
	pr := mergeProto()
	t.Run("blocks", func(t *testing.T) {
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
	for budget := 1000; budget <= 20000; budget += 1000 {
		if res := r.run(budget); res.Steps != budget {
			t.Fatalf("ran to step %d of %d", res.Steps, budget)
		}
		if cc.N() != 1000 {
			t.Fatalf("step %d: population drifted to %d", budget, cc.N())
		}
		if w := recountWeight(r); r.weight() != w || blockTotal(t, r) != w {
			t.Fatalf("step %d: W = %d, blocks %d, recounted %d", budget, r.weight(), blockTotal(t, r), w)
		}
	}
	if r.NonNull() == 0 {
		t.Fatal("no state changes in 20000 interactions")
	}
}

// TestDrawResponderExcludesSoleAgent pins the diagonal correction: when
// the initiator's state has a single agent, the responder can never be
// that state (there is no second agent to meet), even though the pair
// is non-null.
func TestDrawResponderExcludesSoleAgent(t *testing.T) {
	r := readyCountRunner(t, denseProto(4), []int{1, 9, 0, 0}, nil, 5)
	u := newCountRNG(6)
	initiated := 0
	for i := 0; i < 5000; i++ {
		x, y, _ := r.pair(u.uint64n(r.weight()))
		if x == 0 {
			initiated++
			if y == 0 {
				t.Fatal("responder collided with the sole agent of state 0")
			}
		}
	}
	if initiated == 0 {
		t.Fatal("the sole agent never initiated; the test checked nothing")
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

// TestCountRunnerSkipContract pins what bulk null runs must not change:
// a run with ProgressEvery = k emits a progress record at exactly each
// multiple of k (plus Finish's), each followed by a census record; the
// quiet-streak histogram sums to Steps − NonNull; and a converged run
// reports its last state change plus exactly one QuietWindow(N).
func TestCountRunnerSkipContract(t *testing.T) {
	const k = 7
	cc := core.NewCountConfig(3)
	cc.Counts[0], cc.Counts[1] = 12, 12
	r, err := NewCountRunner(mergeProto(), cc, 23)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recSink{}
	r.Obs = obs.NewObserver(24, false, obs.ObserverOptions{Sink: sink, ProgressEvery: k, NoPairs: true})
	res, err := r.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	if q := r.Obs.Snapshot().Quiet; q != int64(QuietWindow(24)) {
		t.Fatalf("converged run ends with %d null interactions after its last change, want QuietWindow(24) = %d", q, QuietWindow(24))
	}
	if sum := r.Obs.QuietStreaks().Sum(); sum != int64(res.Steps-res.NonNull) {
		t.Fatalf("quiet streaks sum to %d, want Steps − NonNull = %d", sum, res.Steps-res.NonNull)
	}
	var steps []uint64
	for i, rec := range sink.recs {
		p, ok := rec.(obs.Progress)
		if !ok {
			continue
		}
		steps = append(steps, p.Step)
		if c, ok := sink.recs[i+1].(obs.CensusRec); !ok || c.Step != p.Step {
			t.Fatalf("progress at step %d not followed by its census record: %#v", p.Step, sink.recs[i+1])
		}
	}
	want := res.Steps / k
	if len(steps) != want+1 || steps[want] != uint64(res.Steps) {
		t.Fatalf("%d progress records (last at %d), want %d multiples of %d plus the final one at %d", len(steps), steps[len(steps)-1], want, k, res.Steps)
	}
	for i, s := range steps[:want] {
		if s != uint64(k*(i+1)) {
			t.Fatalf("progress record %d at step %d, want %d", i, s, k*(i+1))
		}
	}
}

// TestCountRunnerInterruptInNullRun cancels a run inside one long null
// run: Protocol 2 at N = 10⁶ interacts non-null about once in 500k
// interactions, and the budget is 2⁴⁰. The run must stop at the first
// 2¹⁴ boundary where Interrupt returns true, not at the end of the skip.
func TestCountRunnerInterruptInNullRun(t *testing.T) {
	pr := naming.NewSelfStab(64)
	cc, err := CountStart(pr, 1_000_000, "zero")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCountRunner(pr, cc, 5)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	r.Interrupt = func() bool {
		polls++
		return polls == 3
	}
	res, err := r.Run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2<<14 || polls != 3 {
		t.Fatalf("stopped at step %d after %d polls, want step %d after 3 (polls at 0, 2¹⁴, 2·2¹⁴)", res.Steps, polls, 2<<14)
	}
	if res.NonNull != 0 || res.Converged {
		t.Fatalf("want a stop inside the first null run: %v", res)
	}
}

// TestCountSnapshotAtPolls: at every interrupt poll of a journaled
// count run, a live scrape of the observer reads exactly the runner's
// step count. Polls fall on multiples of 2¹⁴, inside bulk null runs
// too, and the observer publishes whenever its count reaches one.
func TestCountSnapshotAtPolls(t *testing.T) {
	const n, budget = 1_000_000, 2_000_000
	for _, c := range []struct {
		name string
		pr   core.Protocol
	}{{"selfstab", naming.NewSelfStab(64)}, {"asym", naming.NewAsymmetric(64)}} {
		t.Run(c.name, func(t *testing.T) {
			cc, err := CountStart(c.pr, n, "zero")
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewCountRunner(c.pr, cc, 11)
			if err != nil {
				t.Fatal(err)
			}
			r.Obs = obs.NewObserver(n, core.HasLeader(c.pr), obs.ObserverOptions{Sink: obs.Discard, ProgressEvery: 100_000, NoPairs: true})
			polls := 0
			r.Interrupt = func() bool {
				polls++
				if got := r.Obs.Snapshot().Steps; got != uint64(r.Steps()) {
					t.Fatalf("poll %d: snapshot reads step %d, runner is at %d", polls, got, r.Steps())
				}
				return false
			}
			res, err := r.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			if want := (budget + interruptMask) / (interruptMask + 1); res.Steps != budget || polls != want {
				t.Fatalf("ran %d steps with %d polls, want %d with %d", res.Steps, polls, budget, want)
			}
			if snap := r.Obs.Snapshot(); snap.Steps != budget || snap.NonNull != uint64(res.NonNull) {
				t.Fatalf("snapshot after Finish %d/%d, want %d/%d", snap.Steps, snap.NonNull, budget, res.NonNull)
			}
		})
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
