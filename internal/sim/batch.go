package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// Trial describes one independent execution of a batch, on either
// engine, in one of two forms. A built trial carries objects mk made:
// an agent trial sets Cfg and Sched, and Inject for fault injection; a
// count trial sets Count and Seed instead. A trial from AgentTrial or
// CountTrial carries a recipe instead, which the worker running it
// builds in the trial state it reuses (see RunBatch) and fills in
// those fields with. Batches share one Protocol value across
// goroutines, which is safe because protocols are immutable and their
// transition functions are pure.
type Trial struct {
	Cfg   *core.Config
	Sched sched.Scheduler
	// Inject, when non-nil, is installed as the trial runner's fault
	// injector, wired to the batch sink and the trial index. Batches
	// call mk once per attempt and expect a fresh scheduler and
	// injector each time.
	Inject *fault.Injector
	// Count, when non-nil, runs the trial on the count engine from
	// these per-state counts, with Seed as the engine seed (see
	// CountRunner.Seed).
	Count *core.CountConfig
	Seed  int64

	recipe recipe
}

// BatchResult pairs a trial index with its outcome.
type BatchResult struct {
	Trial int
	// Result is the trial's outcome. Final is nil for count trials, for
	// trials aborted before they started and for recipe trials, whose
	// configuration is their worker's and is reset by its next trial.
	Result Result
	// Status, Attempts and Reason carry the supervision outcome (see
	// SupervisedResult). A trial whose batch was canceled or past its
	// deadline before it started is TrialAborted with a zero Result.
	Status   TrialStatus
	Attempts int
	Reason   string
	// Err carries a trial's construction failure (a recipe the
	// protocol cannot build, a count population out of bounds, a table
	// mismatch); such a trial did not run.
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
// Every goroutine that runs trials, idle helpers included, owns one
// workspace while it does: the runner with its census, the observer,
// and the configuration, scheduler, injector and generators a recipe
// trial is built in, or the count engine's configuration, weights and
// generator. Each trial and stall-retry attempt resets them in place
// instead of building new ones, and the goroutine hands them back to a
// pool shared by every batch when it leaves. Records never alias a
// workspace: a held record owns its memory.
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
	b := newBatch(ctx, pr, lo, hi, sup, bo, mk)
	trials := len(b.out)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	start := time.Now()
	b.wg.Add(workers)
	for range workers {
		go b.join()
	}
	b.wg.Wait()
	return b.summary(workers, time.Since(start).Nanoseconds())
}

// batch is what the goroutines running one RunBatch call share: its
// inputs, the trial claims, the journal's progress through the trials
// and the busy-time totals.
type batch struct {
	ctx context.Context
	pr  core.Protocol
	lo  int
	sup Supervision
	bo  BatchObs
	mk  func(trial, attempt int) Trial
	// tab is pr compiled once and shared (immutable) across all workers
	// and both engines, instead of once per trial. A protocol that fails
	// to compile runs every agent trial on the interface path, as a
	// single run would, and fails every count trial.
	tab        *core.Compiled
	deadlineAt time.Time
	idle       chan func()
	// join runs trials on a workspace from the pool: each worker's
	// body, and the function a helper receives on idle.
	join func()
	out  []BatchResult

	wg       sync.WaitGroup // the batch's workers and the helpers that joined
	mu       sync.Mutex
	next     int        // the first unclaimed offset
	emitted  int        // the trials [0, emitted) are journaled
	emitting bool       // a goroutine is emitting finished trials
	logs     []trialLog // by offset
	busyNS   int64      // summed trial time
	ran      int        // goroutines that ran a trial
}

func newBatch(ctx context.Context, pr core.Protocol, lo, hi int, sup Supervision, bo BatchObs, mk func(trial, attempt int) Trial) *batch {
	if ctx == nil {
		ctx = context.Background()
	}
	trials := max(hi-lo, 0)
	b := &batch{
		ctx: ctx, pr: pr, lo: lo, sup: sup, bo: bo, mk: mk,
		out:  make([]BatchResult, trials),
		logs: make([]trialLog, trials),
	}
	if pr.States() <= maxCompiledStates {
		b.tab, _ = core.Compile(pr)
	}
	if sup.Deadline > 0 {
		b.deadlineAt = time.Now().Add(sup.Deadline)
	}
	b.idle, _ = ctx.Value(idleKey{}).(chan func())
	b.join = func() {
		ws := workspaces.Get().(*workspace)
		b.run(ws)
		workspaces.Put(ws)
		b.wg.Done()
	}
	return b
}

// run claims trials and runs them on ws until none is left unclaimed,
// then adds its busy time to the batch's.
func (b *batch) run(ws *workspace) {
	trials := len(b.out)
	var busy int64
	var ranTrial bool
	for {
		off, stream := b.claim()
		if off >= trials {
			break
		}
		// Lend one more worker's place to a goroutine waiting on idle,
		// if there is one.
		if b.idle != nil && off+1 < trials {
			b.wg.Add(1)
			select {
			case b.idle <- b.join:
			default:
				b.wg.Done()
			}
		}
		i := b.lo + off
		// Graceful degradation: once canceled or past the batch
		// deadline, the remaining trials are tagged instead of run, so
		// the batch returns promptly with partial results.
		if b.ctx.Err() != nil {
			b.out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "canceled"}
			b.finish(off)
			continue
		}
		if !b.deadlineAt.IsZero() && !time.Now().Before(b.deadlineAt) {
			b.out[off] = BatchResult{Trial: i, Status: TrialAborted, Reason: "deadline"}
			b.finish(off)
			continue
		}
		t0 := time.Now()
		b.out[off] = b.trial(ws, off, stream)
		busy += time.Since(t0).Nanoseconds()
		ranTrial = true
		b.finish(off)
	}
	if ranTrial {
		b.mu.Lock()
		b.busyNS += busy
		b.ran++
		b.mu.Unlock()
	}
}

// trial runs the trial at offset off on ws, journaling straight to the
// sinks when stream is set and into its log otherwise.
func (b *batch) trial(ws *workspace, off int, stream bool) BatchResult {
	i := b.lo + off
	tbo, tsup := b.bo, b.sup
	tsup.Trial = i
	if b.bo.Sink != nil {
		tsup.Sink = b.bo.Sink
	}
	if !stream {
		log := &b.logs[off]
		tbo.Sink = log.sink(tbo.Sink)
		tsup.Sink = log.sink(tsup.Sink)
		tsup.Trace.Sink = log.sink(tsup.Trace.Sink)
	}
	// One span per trial, parenting the attempt/slice spans
	// superviseUntil emits. The ID derives from (trace, parent, "trial",
	// i), not from emission order, so span trees are identical however
	// workers interleave.
	var tspan *obs.Span
	if tsup.Trace.Enabled() {
		tspan = tsup.Trace.Start("trial", i)
		tspan.Trial = i
		tsup.Trace = tspan.Context()
	}
	var br BatchResult
	t := b.mk(i, 0)
	if err := ws.fill(b.pr, &t); err != nil {
		br = BatchResult{Trial: i, Err: err}
	} else if t.Count != nil {
		br = ws.runCount(b.ctx, b.pr, b.tab, i, t, tsup.stepBudget(), tbo)
	} else {
		sr := superviseUntil(b.ctx, tsup, b.deadlineAt, func(attempt int) *Runner {
			if attempt > 0 {
				t = b.mk(i, attempt)
				if err := ws.fill(b.pr, &t); err != nil {
					// Attempt 0's recipe built, and a maker's attempts
					// differ in their seeds, which no check reads.
					panic(fmt.Sprintf("sim: trial %d attempt %d: %v", i, attempt, err))
				}
			}
			return ws.runner(b.pr, b.tab, i, t, tbo)
		})
		if t.Cfg == &ws.start.cfg {
			sr.Final = nil // the next trial's start
		}
		br = BatchResult{Trial: i, Result: sr.Result, Status: sr.Status, Attempts: sr.Attempts, Reason: sr.Reason}
	}
	if tspan != nil {
		tspan.Attr("attempts", int64(br.Attempts)).Attr("steps", int64(br.Result.Steps)).Attr("nonNull", int64(br.Result.NonNull))
		if br.Result.Converged {
			tspan.Attr("converged", 1)
		}
		tspan.End()
	}
	return br
}

// summary aggregates the batch's results, run by `workers` goroutines
// in wallNS, and journals the batch-summary record.
func (b *batch) summary(workers int, wallNS int64) BatchSummary {
	sum := BatchSummary{
		Results: b.out,
		Trials:  len(b.out),
		Workers: workers,
		WallNS:  wallNS,
	}
	for _, br := range b.out {
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
	if sum.WallNS > 0 && b.ran > 0 {
		sum.Utilization = float64(b.busyNS) / (float64(sum.WallNS) * float64(b.ran))
	}
	if b.bo.Sink != nil {
		_ = b.bo.Sink.Emit(sum.Record())
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

// claim takes the next trial offset (≥ len(logs) when none is left) and
// reports whether that trial streams: every earlier trial is journaled.
func (b *batch) claim() (off int, stream bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	off = b.next
	b.next++
	return off, off == b.emitted
}

// finish marks the trial at offset off finished and journals every
// finished trial from the first one not yet journaled on, emitting
// their held records in trial order. One goroutine emits at a time,
// outside the lock, and trials that finish meanwhile are left to it.
// emitted advances only once a trial's records are out, so no trial
// claimed while they go out streams.
func (b *batch) finish(off int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.logs[off].done = true
	if b.emitting {
		return
	}
	b.emitting = true
	for b.emitted < len(b.logs) && b.logs[b.emitted].done {
		log := &b.logs[b.emitted]
		b.mu.Unlock()
		log.emit()
		b.mu.Lock()
		b.emitted++
	}
	b.emitting = false
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
