package sim

import (
	"context"
	"fmt"
	"time"

	"popnaming/internal/obs"
)

// DefaultStepBudget is the per-trial interaction budget when a
// Supervision leaves StepBudget zero.
const DefaultStepBudget = 50_000_000

// DefaultSlice is the supervision granularity when a Supervision leaves
// Slice zero: the runner executes this many interactions between
// cancel/deadline/stall checks.
const DefaultSlice = 1 << 15

// TrialStatus classifies how a supervised trial ended.
type TrialStatus uint8

const (
	// TrialOK: the first attempt completed normally (converged, or ran
	// its full step budget without stalling).
	TrialOK TrialStatus = iota
	// TrialRetried: an attempt completed normally after at least one
	// stall-triggered retry.
	TrialRetried
	// TrialAborted: the trial was cut short — canceled, past its
	// wall-clock deadline, or stalled with no retries left — and its
	// Result is partial.
	TrialAborted
)

var statusNames = [...]string{"ok", "retried", "aborted"}

func (s TrialStatus) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("TrialStatus(%d)", uint8(s))
}

// Supervision bounds one trial (or every trial of a batch): a step
// budget, an optional wall-clock deadline, and quiet-streak stall
// detection with bounded retry (cancellation comes through the
// context Supervise takes). The zero value
// supervises with defaults only (DefaultStepBudget, DefaultSlice, no
// deadline, no stall detection, no retries).
type Supervision struct {
	// StepBudget is the per-attempt interaction budget (0 selects
	// DefaultStepBudget). An attempt that runs its full budget without
	// converging completes normally with Converged false.
	StepBudget int
	// Deadline is the wall-clock bound for the whole trial, retries
	// included (0: none). For a batch it bounds the whole batch.
	Deadline time.Duration
	// StallQuiet, when positive, declares an attempt stalled once its
	// quiet streak (consecutive null interactions without reaching
	// silence) reaches this length — the signature of a crashed-agent
	// lockout or a pathological schedule. Stalled attempts are retried
	// while Retries allows, then aborted.
	StallQuiet int
	// Retries is the number of fresh attempts (rebuilt runner, derived
	// seed) allowed after a stall.
	Retries int
	// Slice is the number of interactions run between supervision
	// checks (0 selects DefaultSlice). It is part of the run's
	// determinism contract: silence is also checked at every slice
	// boundary, so the same seed with a different Slice may converge at
	// a different step count.
	Slice int
	// Sink, when non-nil, receives a v1 "fault" record for every retry
	// and abort (kinds "retry"/"abort").
	Sink obs.Sink
	// Trial tags emitted records with a batch trial index.
	Trial int
	// Trace, when enabled, journals one span per runner attempt and per
	// supervision slice under it (names "attempt"/"slice", indexed by
	// attempt resp. slice number), with the attempt's fault injections
	// attached as span events. The zero value disables tracing at the
	// cost of one branch per slice — the supervised hot path stays
	// allocation-free (BenchmarkSupervisedNilTrace).
	Trace obs.SpanContext
}

func (sup *Supervision) stepBudget() int {
	if sup.StepBudget > 0 {
		return sup.StepBudget
	}
	return DefaultStepBudget
}

func (sup *Supervision) slice() int {
	if sup.Slice > 0 {
		return sup.Slice
	}
	return DefaultSlice
}

// SupervisedResult is a trial Result plus its supervision outcome.
type SupervisedResult struct {
	Result
	// Status classifies the outcome; on TrialAborted the Result is
	// partial (the state when supervision cut the run short).
	Status TrialStatus
	// Attempts counts runner attempts, so 1 + the retries consumed.
	Attempts int
	// Reason is empty for normal completion and "stall", "deadline" or
	// "canceled" for aborts.
	Reason string
	// WallNS is the trial's wall-clock time, retries included.
	WallNS int64
}

// DeriveSeed derives a per-trial, per-attempt seed from a base seed by
// splitmix64 mixing, so retries explore fresh randomness while staying
// reproducible from (base, trial, attempt).
func DeriveSeed(base int64, trial, attempt int) int64 {
	z := obs.Mix64(uint64(base))
	z = obs.Mix64(z ^ uint64(trial)*0x9e3779b97f4a7c15)
	z = obs.Mix64(z ^ uint64(attempt)*0xbf58476d1ce4e5b9)
	return int64(z)
}

// Supervise runs one trial under supervision. mk builds the runner for
// each attempt (attempt 0 first; stall retries call it again with the
// next attempt number — derive seeds with DeriveSeed so attempts
// differ). Supervise finishes each attempt's Obs, when one is attached,
// before returning or retrying.
//
// ctx cancellation is honored between attempts and at every slice
// boundary (so within one supervision check of the cancel): the trial
// aborts with reason "canceled" and its partial Result. A nil ctx is
// treated as context.Background().
func Supervise(ctx context.Context, sup Supervision, mk func(attempt int) *Runner) SupervisedResult {
	var deadlineAt time.Time
	if sup.Deadline > 0 {
		deadlineAt = time.Now().Add(sup.Deadline)
	}
	return superviseUntil(ctx, sup, deadlineAt, mk)
}

// superviseUntil is Supervise against an absolute deadline instant, so
// a batch can impose one shared deadline across all its trials.
func superviseUntil(ctx context.Context, sup Supervision, deadlineAt time.Time, mk func(attempt int) *Runner) SupervisedResult {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	budget := sup.stepBudget()
	slice := sup.slice()
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			// Canceled between attempts: abort before building the next
			// runner. Attempts counts the runners actually built.
			sup.emit("abort", "canceled", attempt, nil)
			return SupervisedResult{Status: TrialAborted, Attempts: attempt, Reason: "canceled", WallNS: time.Since(start).Nanoseconds()}
		}
		r := mk(attempt)
		var aspan *obs.Span
		if sup.Trace.Enabled() {
			aspan = sup.Trace.Start("attempt", attempt)
			aspan.Trial = sup.Trial
		}
		actx := aspan.Context()
		res := Result{Final: r.Cfg}
		reason := ""
		stalled := false
		nslice := 0
		for {
			if ctx.Err() != nil {
				reason = "canceled"
			} else if !deadlineAt.IsZero() && !time.Now().Before(deadlineAt) {
				reason = "deadline"
			}
			if reason != "" {
				res = Result{Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
				break
			}
			bound := r.steps + slice
			if bound > budget {
				bound = budget
			}
			var sspan *obs.Span
			if aspan != nil {
				sspan = actx.Start("slice", nslice)
				sspan.Trial = sup.Trial
			}
			res = r.run(bound)
			if sspan != nil {
				sspan.Attr("steps", int64(r.steps)).Attr("nonNull", int64(r.nonNull))
				sspan.End()
			}
			nslice++
			if res.Converged || r.steps >= budget {
				break
			}
			if sup.StallQuiet > 0 && r.quiet >= sup.StallQuiet {
				stalled = true
				break
			}
		}
		r.finish(res.Converged)
		if aspan != nil {
			if r.Inject != nil {
				for _, f := range r.Inject.Fired() {
					aspan.Event(f.Event.Kind.String(), f.Step)
				}
			}
			aspan.Attr("slices", int64(nslice)).Attr("steps", int64(r.steps)).Attr("nonNull", int64(r.nonNull))
			aspan.End()
		}
		wall := time.Since(start).Nanoseconds()
		switch {
		case reason != "":
			sup.emit("abort", reason, attempt, r)
			return SupervisedResult{Result: res, Status: TrialAborted, Attempts: attempt + 1, Reason: reason, WallNS: wall}
		case stalled && attempt < sup.Retries:
			sup.emit("retry", "stall", attempt+1, r)
			continue
		case stalled:
			sup.emit("abort", "stall", attempt, r)
			return SupervisedResult{Result: res, Status: TrialAborted, Attempts: attempt + 1, Reason: "stall", WallNS: wall}
		case attempt > 0:
			return SupervisedResult{Result: res, Status: TrialRetried, Attempts: attempt + 1, WallNS: wall}
		default:
			return SupervisedResult{Result: res, Status: TrialOK, Attempts: 1, WallNS: wall}
		}
	}
}

// emit journals a supervision event ("retry"/"abort") as a fault
// record. r may be nil when no runner was built (cancellation between
// attempts).
func (sup *Supervision) emit(kind, trigger string, attempt int, r *Runner) {
	if sup.Sink == nil {
		return
	}
	step := 0
	if r != nil {
		step = r.steps
	}
	rec := obs.NewFaultRec(sup.Trial, int64(step), kind, 0, trigger)
	rec.Attempt = attempt
	_ = sup.Sink.Emit(rec)
}
