package sim

import (
	"context"
	"runtime"
	"sync"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// Trial describes one independent execution of a batch, on either
// engine. An agent trial sets Cfg and Sched, and Inject for fault
// injection; a count trial sets Count and Seed instead. Batches share
// one Protocol value across goroutines, which is safe because protocols
// are immutable and their transition functions are pure.
type Trial struct {
	Cfg   *core.Config
	Sched sched.Scheduler
	// Inject, when non-nil, is installed as the trial runner's fault
	// injector. Injectors and schedulers are single-use: batches call
	// mk once per attempt, expect fresh ones each time, and release
	// their generators when the attempt is over.
	Inject *fault.Injector
	// Count, when non-nil, runs the trial on the count engine from
	// these per-state counts, with Seed as the engine seed (see
	// CountRunner.Seed).
	Count *core.CountConfig
	Seed  int64
}

// release hands the attempt's generators back for reuse (see rng.Get)
// once the attempt is over.
func (t Trial) release() {
	if r, ok := t.Sched.(*sched.Random); ok {
		r.Release()
	}
	if t.Inject != nil {
		t.Inject.Release()
	}
}

// BatchResult pairs a trial index with its outcome.
type BatchResult struct {
	Trial int
	// Result is the trial's outcome. Final is nil for count trials and
	// for trials aborted before they started.
	Result Result
	// Status, Attempts and Reason carry the supervision outcome (see
	// SupervisedResult). A trial whose batch was canceled or past its
	// deadline before it started is TrialAborted with a zero Result.
	Status   TrialStatus
	Attempts int
	Reason   string
	// Err carries a count trial's construction failure (population
	// out of bounds, table mismatch); such a trial did not run.
	Err error
}

// BatchObs configures observability for a batch run.
type BatchObs struct {
	// Sink, when non-nil, receives trial-tagged progress and summary
	// records from every trial plus the merged batch-summary record.
	// It is shared across workers and must be safe for concurrent use
	// (obs.JournalSink is); record order across trials follows worker
	// scheduling and is not deterministic.
	Sink obs.Sink
	// ProgressEvery is the per-trial progress snapshot period in
	// interactions (0: only final snapshots).
	ProgressEvery int
}

// BatchSummary aggregates one batch run.
type BatchSummary struct {
	// Results holds the per-trial outcomes, indexed by trial.
	Results []BatchResult
	// Trials and Converged count the runs and how many reached
	// silence within budget.
	Trials    int
	Converged int
	// Aborted and Retried count trials cut short by supervision and
	// trials that completed only after a stall retry (both zero for
	// unsupervised batches).
	Aborted int
	Retried int
	// TotalSteps and TotalNonNull sum the interaction counts of all
	// trials.
	TotalSteps   int64
	TotalNonNull int64
	// StepsToConverge is the log-scale histogram of steps-to-silence
	// over the converged trials.
	StepsToConverge obs.Histogram
	// Workers, WallNS and Utilization describe the worker pool:
	// utilization is the summed busy time of all workers divided by
	// workers x wall clock (1.0 = no idle time).
	Workers     int
	WallNS      int64
	Utilization float64
}

// Record converts the summary to its journal record.
func (s *BatchSummary) Record() obs.BatchSummaryRec {
	return obs.BatchSummaryRec{
		V:            obs.Version,
		Type:         "batch_summary",
		Trials:       s.Trials,
		Converged:    s.Converged,
		Aborted:      s.Aborted,
		Retried:      s.Retried,
		TotalSteps:   s.TotalSteps,
		TotalNonNull: s.TotalNonNull,
		StepsHist:    s.StepsToConverge.Buckets(),
		Workers:      s.Workers,
		WallNS:       s.WallNS,
		Utilization:  s.Utilization,
	}
}

// RunBatch runs the contiguous trial range [lo, hi) of a logical batch
// on up to `workers` goroutines (0 selects GOMAXPROCS). The summary
// describes just the range: Trials = hi-lo, with Results indexed by
// offset from lo. Every trial index that escapes — mk arguments, result
// tags, progress/summary records, injector tags, span names — is the
// global index, so a shard's records are byte-identical to the same
// trials' records in a full run (trial seeds derive from the global
// index via DeriveSeed). This is the execution half of the dist shard
// protocol (see internal/dist).
//
// mk(trial, 0) decides the engine. An agent trial runs under sup (step
// budget, stall retry) with the deadline interpreted
// batch-wide: one instant, computed at entry, bounds every trial. mk is
// called once per attempt (fresh configuration, scheduler and injector
// each time; derive per-attempt seeds with DeriveSeed), and injectors
// are wired to the batch sink and their trial index before the run
// starts. An unsupervised batch passes Supervision{StepBudget: b,
// Slice: b}: one attempt and one slice, so each trial is step-for-step
// a bare Runner.Run(b). A count trial (Count set) runs once, one
// unsliced CountRunner.Run(sup.StepBudget); the count engine supports
// no other supervision (see CountUnsupported).
//
// Trials claimed after ctx is canceled or the deadline passes are
// tagged TrialAborted without running. A cancel also stops in-flight
// trials — agent trials at their next slice boundary, count trials at
// their next interrupt poll — tagged TrialAborted/"canceled" with
// partial results. A nil ctx is context.Background().
func RunBatch(ctx context.Context, pr core.Protocol, lo, hi, workers int, sup Supervision, bo BatchObs, mk func(trial, attempt int) Trial) BatchSummary {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := hi - lo
	if trials < 0 {
		trials = 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	withLeader := core.HasLeader(pr)
	// Compile once and share the (immutable) table across all workers
	// and both engines, instead of once per trial. A protocol that fails
	// to compile runs every agent trial on the interface path, as a
	// single run would, and fails every count trial.
	var tab *core.Compiled
	if pr.States() <= maxCompiledStates {
		tab, _ = core.Compile(pr)
	}
	var deadlineAt time.Time
	if sup.Deadline > 0 {
		deadlineAt = time.Now().Add(sup.Deadline)
	}
	out := make([]BatchResult, trials)
	busy := make([]int64, workers)
	start := time.Now()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				off := next
				next++
				mu.Unlock()
				if off >= trials {
					return
				}
				i := lo + off
				// Graceful degradation: once canceled or past the batch
				// deadline, the remaining trials are tagged instead of
				// run, so the batch returns promptly with partial
				// results.
				if ctx.Err() != nil {
					out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "canceled"}
					continue
				}
				if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
					out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "deadline"}
					continue
				}
				t0 := time.Now()
				tsup := sup
				tsup.Trial = i
				if bo.Sink != nil {
					tsup.Sink = bo.Sink
				}
				// One span per trial, parenting the attempt/slice spans
				// superviseUntil emits. The ID derives from (trace,
				// parent, "trial", i), not from emission order, so span
				// trees are identical however workers interleave.
				var tspan *obs.Span
				if sup.Trace.Enabled() {
					tspan = sup.Trace.Start("trial", i)
					tspan.Trial = i
					tsup.Trace = tspan.Context()
				}
				var br BatchResult
				if t := mk(i, 0); t.Count != nil {
					br = runCountEngine(ctx, pr, tab, i, t, tsup.stepBudget(), bo)
				} else {
					sr := superviseUntil(ctx, tsup, deadlineAt, func(attempt int) *Runner {
						if attempt > 0 {
							t.release()
							t = mk(i, attempt)
						}
						run := NewRunner(pr, t.Sched, t.Cfg)
						if t.Inject != nil {
							t.Inject.Trial = i
							if bo.Sink != nil {
								t.Inject.Sink = bo.Sink
							}
							run.Inject = t.Inject
						}
						if bo.Sink != nil {
							run.Obs = obs.NewObserver(t.Cfg.N(), withLeader, obs.ObserverOptions{
								Sink:          bo.Sink,
								ProgressEvery: bo.ProgressEvery,
								Trial:         i,
							})
						}
						if tab != nil {
							run.UseCompiled(tab)
						}
						return run
					})
					t.release()
					br = BatchResult{Trial: i, Result: sr.Result, Status: sr.Status, Attempts: sr.Attempts, Reason: sr.Reason}
				}
				if tspan != nil {
					tspan.Attr("attempts", int64(br.Attempts)).Attr("steps", int64(br.Result.Steps)).Attr("nonNull", int64(br.Result.NonNull))
					if br.Result.Converged {
						tspan.Attr("converged", 1)
					}
					tspan.End()
				}
				out[off] = br
				busy[w] += time.Since(t0).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()

	sum := BatchSummary{
		Results: out,
		Trials:  trials,
		Workers: workers,
		WallNS:  time.Since(start).Nanoseconds(),
	}
	for _, br := range out {
		sum.TotalSteps += int64(br.Result.Steps)
		sum.TotalNonNull += int64(br.Result.NonNull)
		if br.Result.Converged {
			sum.Converged++
			sum.StepsToConverge.Observe(int64(br.Result.Steps))
		}
		switch br.Status {
		case TrialAborted:
			sum.Aborted++
		case TrialRetried:
			sum.Retried++
		}
	}
	var totalBusy int64
	for _, b := range busy {
		totalBusy += b
	}
	if sum.WallNS > 0 && workers > 0 {
		sum.Utilization = float64(totalBusy) / (float64(sum.WallNS) * float64(workers))
	}
	if bo.Sink != nil {
		_ = bo.Sink.Emit(sum.Record())
	}
	return sum
}

// runCountEngine runs trial i on the count engine: one unsliced Run over
// the whole budget that polls ctx, journaling through a trial-tagged
// observer. A trial the cancel stops mid-run is TrialAborted/"canceled"
// with its partial result.
func runCountEngine(ctx context.Context, pr core.Protocol, tab *core.Compiled, i int, t Trial, budget int, bo BatchObs) BatchResult {
	run, err := newCountRunner(pr, tab, t.Count, t.Seed)
	if err != nil {
		return BatchResult{Trial: i, Err: err}
	}
	canceled := false
	run.Interrupt = func() bool {
		canceled = ctx.Err() != nil
		return canceled
	}
	if bo.Sink != nil {
		run.Obs = obs.NewObserver(t.Count.N(), core.HasLeader(pr), obs.ObserverOptions{
			Sink:          bo.Sink,
			ProgressEvery: bo.ProgressEvery,
			Trial:         i,
			NoPairs:       true,
		})
	}
	res, err := run.Run(budget)
	br := BatchResult{Trial: i, Result: Result{Converged: res.Converged, Steps: res.Steps, NonNull: res.NonNull}, Attempts: 1, Err: err}
	if canceled {
		br.Status, br.Reason = TrialAborted, "canceled"
	}
	return br
}
