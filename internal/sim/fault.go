package sim

import "popnaming/internal/core"

// Resync rebuilds the compiled engine's incremental census from the
// current configuration. Call it after mutating Cfg from outside the
// runner (fault injection, a manual edit between Run calls): the
// census only stays truthful while every change flows through the
// runner, and a stale census makes Silent lie. It also clears the quiet
// streak, since null interactions observed before the mutation say
// nothing about the mutated configuration.
//
// A mutation that introduced states outside the compiled table's domain
// drops the runner to the interface-dispatch path (which imposes no
// such contract), mirroring the engine-selection fallback. On the
// interpreted path Resync only clears the quiet streak.
func (r *Runner) Resync() {
	r.ensureEngine()
	r.quiet = 0
	if r.census == nil {
		return
	}
	if err := r.census.Resync(r.Cfg); err != nil {
		r.tab, r.census = nil, nil
	}
}

// settled reports, after a successful silence check, whether the
// silence ends the run: it does unless fault events are pending. A
// silent population still interacts (nullly), so a pending
// step-triggered event is idled toward, and a pending conv group fires
// right here, whole. The quiet streak restarts after every fired
// group, so the next epoch gets a full quiet window before its first
// silence check.
func (r *Runner) settled() bool {
	inj := r.Inject
	if inj == nil || inj.Exhausted() {
		return true
	}
	if fired, mutated := inj.FireConv(int64(r.steps), r.Cfg); mutated {
		r.Resync()
	} else if fired {
		r.quiet = 0
	}
	return false
}

// suppressed reports whether the injector drops pair (omission burst,
// crashed agent). A dropped pair is fed to the observer as a null event
// with unchanged states. Kept out of Step's body, so a nil injector
// costs Step one pointer test.
func (r *Runner) suppressed(pair core.Pair) bool {
	if !r.Inject.Suppress(pair) {
		return false
	}
	if r.Obs == nil {
		return true
	}
	if pair.HasLeader() {
		x := r.Cfg.Mobile[pair.MobilePeer()]
		r.Obs.ObserveLeader(pair, x, x, false)
		return true
	}
	x, y := r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B]
	r.Obs.ObserveMobile(pair, x, y, x, y, false)
	return true
}
