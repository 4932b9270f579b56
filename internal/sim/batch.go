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
	// records from every trial plus the merged batch-summary record,
	// in trial order at any worker count: all of trial k's records
	// before any of trial k+1's (see RunBatch). Emit is called from the
	// goroutines that run the trials, one call at a time.
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
	// Workers is the batch's own worker count, min(workers, trials),
	// and utilization is the summed busy time of the goroutines that
	// ran trials, idle helpers included, divided by their number x wall
	// clock (1.0 = no idle time).
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
// Records are journaled in trial order, whatever the worker count and
// goroutine scheduling: a trial that starts once every earlier trial is
// journaled emits straight to the sinks (bo.Sink, sup.Sink and
// sup.Trace's), and any other trial holds its observer, census,
// injector, supervisor and span records in memory until every earlier
// trial's are out. The batch-summary record comes last.
//
// When ctx carries an idle channel (see WithIdle), every claim that
// leaves trials unclaimed also offers one more worker's place on it,
// without waiting, so goroutines idle elsewhere join the batch.
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
	idle, _ := ctx.Value(idleKey{}).(chan func())
	out := make([]BatchResult, trials)
	st := &batchState{logs: make([]trialLog, trials)}
	var work func()
	work = func() {
		defer st.wg.Done()
		var busy int64
		var ranTrial bool
		for {
			off, stream := st.claim()
			if off >= trials {
				break
			}
			// Lend one more worker's place to a goroutine waiting on
			// idle, if there is one.
			if idle != nil && off+1 < trials {
				st.wg.Add(1)
				select {
				case idle <- work:
				default:
					st.wg.Done()
				}
			}
			i := lo + off
			// Graceful degradation: once canceled or past the batch
			// deadline, the remaining trials are tagged instead of
			// run, so the batch returns promptly with partial
			// results.
			if ctx.Err() != nil {
				out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "canceled"}
				st.finish(off)
				continue
			}
			if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
				out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "deadline"}
				st.finish(off)
				continue
			}
			t0 := time.Now()
			tbo, tsup := bo, sup
			tsup.Trial = i
			if bo.Sink != nil {
				tsup.Sink = bo.Sink
			}
			if !stream {
				log := &st.logs[off]
				tbo.Sink = log.sink(tbo.Sink)
				tsup.Sink = log.sink(tsup.Sink)
				tsup.Trace.Sink = log.sink(tsup.Trace.Sink)
			}
			// One span per trial, parenting the attempt/slice spans
			// superviseUntil emits. The ID derives from (trace,
			// parent, "trial", i), not from emission order, so span
			// trees are identical however workers interleave.
			var tspan *obs.Span
			if tsup.Trace.Enabled() {
				tspan = tsup.Trace.Start("trial", i)
				tspan.Trial = i
				tsup.Trace = tspan.Context()
			}
			var br BatchResult
			if t := mk(i, 0); t.Count != nil {
				br = runCountEngine(ctx, pr, tab, i, t, tsup.stepBudget(), tbo)
			} else {
				sr := superviseUntil(ctx, tsup, deadlineAt, func(attempt int) *Runner {
					if attempt > 0 {
						t.release()
						t = mk(i, attempt)
					}
					run := NewRunner(pr, t.Sched, t.Cfg)
					if t.Inject != nil {
						t.Inject.Trial = i
						if tbo.Sink != nil {
							t.Inject.Sink = tbo.Sink
						}
						run.Inject = t.Inject
					}
					if tbo.Sink != nil {
						run.Obs = obs.NewObserver(t.Cfg.N(), withLeader, obs.ObserverOptions{
							Sink:          tbo.Sink,
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
			busy += time.Since(t0).Nanoseconds()
			ranTrial = true
			st.finish(off)
		}
		if ranTrial {
			st.mu.Lock()
			st.busyNS += busy
			st.ran++
			st.mu.Unlock()
		}
	}
	start := time.Now()
	st.wg.Add(workers)
	for range workers {
		go work()
	}
	st.wg.Wait()

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
	if sum.WallNS > 0 && st.ran > 0 {
		sum.Utilization = float64(st.busyNS) / (float64(sum.WallNS) * float64(st.ran))
	}
	if bo.Sink != nil {
		_ = bo.Sink.Emit(sum.Record())
	}
	return sum
}

// idleKey is the context key of the channel WithIdle attaches.
type idleKey struct{}

// WithIdle returns a copy of ctx under which RunBatch lends places in
// its batches to idle goroutines. A goroutine that waits on idle and
// receives a function runs trials of that batch when it calls it, as
// one more worker, until no trial is left unclaimed; the function then
// returns. RunBatch offers with a non-blocking send, so a batch never
// waits for a helper and runs on its own workers when none is idle.
func WithIdle(ctx context.Context, idle chan func()) context.Context {
	return context.WithValue(ctx, idleKey{}, idle)
}

// batchState is what a batch's goroutines share: the trial claims, the
// journal's progress through the trials, and the busy-time totals.
type batchState struct {
	wg       sync.WaitGroup // the batch's workers and the helpers that joined
	mu       sync.Mutex
	next     int        // the first unclaimed offset
	emitted  int        // the trials [0, emitted) are journaled
	emitting bool       // a goroutine is emitting finished trials
	logs     []trialLog // by offset
	busyNS   int64      // summed trial time
	ran      int        // goroutines that ran a trial
}

// claim takes the next trial offset (≥ len(logs) when none is left) and
// reports whether that trial streams: every earlier trial is journaled.
func (st *batchState) claim() (off int, stream bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	off = st.next
	st.next++
	return off, off == st.emitted
}

// finish marks the trial at offset off finished and journals every
// finished trial from the first one not yet journaled on, emitting
// their held records in trial order. One goroutine emits at a time,
// outside the lock, and trials that finish meanwhile are left to it.
// emitted advances only once a trial's records are out, so no trial
// claimed while they go out streams.
func (st *batchState) finish(off int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.logs[off].done = true
	if st.emitting {
		return
	}
	st.emitting = true
	for st.emitted < len(st.logs) && st.logs[st.emitted].done {
		log := &st.logs[st.emitted]
		st.mu.Unlock()
		log.emit()
		st.mu.Lock()
		st.emitted++
	}
	st.emitting = false
}

// trialLog is one trial's place in the journal order: whether it has
// finished and, for a trial that started before every earlier trial was
// journaled, its records in emission order, each with the sink it was
// emitted to. Only the trial's goroutine appends to recs.
type trialLog struct {
	done bool
	recs []heldRec
}

type heldRec struct {
	to  obs.Sink
	rec any
}

// sink returns the trial's stand-in for to, which appends to the log
// (nil for a nil sink).
func (l *trialLog) sink(to obs.Sink) obs.Sink {
	if to == nil {
		return nil
	}
	return &heldSink{log: l, to: to}
}

// emit sends the held records on to their sinks, in order, and drops
// them.
func (l *trialLog) emit() {
	for _, h := range l.recs {
		_ = h.to.Emit(h.rec)
	}
	l.recs = nil
}

// heldSink is a held trial's stand-in for one sink.
type heldSink struct {
	log *trialLog
	to  obs.Sink
}

func (s *heldSink) Emit(rec any) error {
	s.log.recs = append(s.log.recs, heldRec{s.to, rec})
	return nil
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
