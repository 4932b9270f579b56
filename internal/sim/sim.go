// Package sim drives protocol executions: it couples a protocol, a
// scheduler and a starting configuration, runs interactions until the
// configuration is silent (terminal) or a step budget is exhausted, and
// reports convergence statistics. It also provides configuration
// construction helpers (uniform, arbitrary, adversarial) and runs
// fault.Injector plans for the self-stabilization experiments.
//
// The runner executes through a compiled engine whenever it can (see
// core.Compile): mobile-mobile transitions become two array loads, a
// per-state census turns the mobile side of convergence detection into
// an O(1) counter test, and Run fuses scheduler, table lookup and
// census update into one allocation-free loop. Protocols that fail to
// compile, oversized state spaces and explicitly interpreted runners
// fall back to the original interface-dispatch path; the two paths are
// step-for-step equivalent (see TestCompiledMatchesInterpreted).
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/trace"
)

// maxCompiledStates caps the state count for transparent compilation:
// beyond it the |Q|² tables (two []State plus a bitset) stop paying for
// themselves in memory, and the runner keeps interface dispatch.
const maxCompiledStates = 1 << 10

// Result summarizes one execution.
type Result struct {
	// Converged reports whether a silent configuration was reached
	// within the step budget.
	Converged bool
	// Steps is the total number of interactions executed, null ones
	// included. The runner checks for silence only after a full window
	// of consecutive null interactions (see Runner.QuietThreshold), so
	// on a converged result Steps includes that trailing quiet tail of
	// up to one window beyond the last state-changing interaction.
	Steps int
	// NonNull is the number of state-changing interactions.
	NonNull int
	// Final is the last configuration (aliased, not copied).
	Final *core.Config
}

// ParallelTime returns the standard parallel-time normalization:
// interactions divided by population size.
func (r Result) ParallelTime(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.Steps) / float64(n)
}

func (r Result) String() string {
	status := "did not converge"
	if r.Converged {
		status = "converged"
	}
	return fmt.Sprintf("%s after %d interactions (%d non-null): %s", status, r.Steps, r.NonNull, r.Final)
}

// Runner executes one protocol instance over one configuration.
type Runner struct {
	// Proto, Sched and Cfg define the execution. Cfg is mutated in
	// place as interactions are applied. Once stepping has begun the
	// configuration must only be mutated through the runner (the
	// compiled engine mirrors it in a state census): inject faults
	// through Inject, or call Resync after an outside mutation.
	Proto core.Protocol
	Sched sched.Scheduler
	Cfg   *core.Config

	// QuietThreshold is the number of consecutive null interactions
	// after which the runner checks the configuration for silence
	// (convergence). Zero selects QuietWindow(N).
	QuietThreshold int

	// OnStep, when non-nil, receives every interaction event (for trace
	// recording and fairness audits).
	OnStep func(trace.Event)

	// Obs, when non-nil, receives every interaction together with the
	// before/after states (per-rule accounting), periodic progress
	// snapshots, and the final summary at the end of Run. Run's fused
	// loop feeds an attached observer inline; a nil Obs costs it one
	// branch and no allocations per interaction (see
	// BenchmarkRunnerObsOverhead).
	Obs *obs.Observer

	// Interpret forces the interface-dispatch path, disabling the
	// compiled engine. The differential tests use it to prove the two
	// paths equivalent; set it before the first Step or Run.
	Interpret bool

	// Inject, when non-nil, is a fault injector. Step applies its
	// suppression: a dropped pair (omission burst, crashed agent)
	// consumes the scheduler draw and counts as a null interaction.
	// Only Run fires its events: step-triggered events before the
	// interaction that crosses their step count, convergence-triggered
	// events when a silence check succeeds, with the census resynced
	// after every mutating event. Silence is only terminal once every
	// plan event has fired — a silent population still interacts
	// (nullly), so the run idles toward pending step triggers, and a
	// budget-exhausted run reports Converged only if it is silent with
	// the plan exhausted. Run keeps the fused loop under an injector,
	// cut at each step event; only while the injector suppresses pairs
	// do its interactions go through Step, one at a time.
	Inject *fault.Injector

	steps   int
	nonNull int
	quiet   int

	engineInit bool
	tab        *core.Compiled // nil: interpreted path
	census     *core.Census   // &cs iff tab is non-nil
	cs         core.Census    // the census, kept by reset for reuse
	lp         core.LeaderProtocol
	rnd        *sched.Random // non-nil when Sched is a *sched.Random
}

// NewRunner returns a runner over the given protocol, scheduler and
// starting configuration.
func NewRunner(p core.Protocol, s sched.Scheduler, c *core.Config) *Runner {
	r := new(Runner)
	r.reset(p, s, c)
	return r
}

// reset makes r the runner NewRunner(p, s, c) returns, keeping its
// census's memory for the engine to reuse.
func (r *Runner) reset(p core.Protocol, s sched.Scheduler, c *core.Config) {
	if core.HasLeader(p) != (c.Leader != nil) {
		panic(fmt.Sprintf("sim: protocol %q and configuration disagree about leader presence", p.Name()))
	}
	*r = Runner{Proto: p, Sched: s, Cfg: c, cs: r.cs}
}

// Steps returns the number of interactions executed so far.
func (r *Runner) Steps() int { return r.steps }

// NonNull returns the number of state-changing interactions so far.
func (r *Runner) NonNull() int { return r.nonNull }

// Compiled reports whether the runner is executing through the
// compiled engine (table dispatch + incremental silence detection).
func (r *Runner) Compiled() bool {
	r.ensureEngine()
	return r.tab != nil
}

// UseCompiled installs a pre-compiled transition table, sharing it with
// other runners of the same protocol (batch trials compile once). It
// must be called before the first Step or Run and the table must have
// been compiled from the runner's protocol.
func (r *Runner) UseCompiled(tab *core.Compiled) {
	if r.engineInit {
		panic("sim: UseCompiled after the engine was initialized")
	}
	if tab != nil && tab.Source() != r.Proto {
		panic(fmt.Sprintf("sim: compiled table of %q installed on a runner of %q", tab.Name(), r.Proto.Name()))
	}
	r.initEngine(tab)
}

// ensureEngine selects the execution path on first use: it compiles the
// protocol (unless Interpret is set, the state space is oversized, or
// compilation fails validation) and builds the configuration census.
func (r *Runner) ensureEngine() {
	if r.engineInit {
		return
	}
	var tab *core.Compiled
	if !r.Interpret && r.Proto.States() <= maxCompiledStates {
		tab, _ = core.Compile(r.Proto)
	}
	r.initEngine(tab)
}

func (r *Runner) initEngine(tab *core.Compiled) {
	r.engineInit = true
	r.lp, _ = r.Proto.(core.LeaderProtocol)
	if r.Interpret || tab == nil {
		return
	}
	if err := r.cs.Reset(tab, r.Cfg); err != nil {
		// Configuration outside the declared state space: stay on the
		// interface path, which imposes no such contract.
		return
	}
	r.tab, r.census = tab, &r.cs
	r.rnd, _ = r.Sched.(*sched.Random)
	if r.Obs != nil {
		r.Obs.CompileRules(tab)
	}
}

// Step executes one interaction and reports whether it was non-null.
// A pair the injector suppresses counts as a null interaction.
func (r *Runner) Step() bool {
	if !r.engineInit { // branch instead of a call: ensureEngine is over the inline budget
		r.ensureEngine()
	}
	var pair core.Pair
	if r.rnd != nil {
		pair = r.rnd.Next()
	} else {
		pair = r.Sched.Next()
	}
	var changed bool
	switch {
	case r.Inject != nil && r.suppressed(pair):
	case r.tab != nil:
		changed = r.applyCompiled(pair)
	case r.Obs == nil:
		changed = core.ApplyPair(r.Proto, r.Cfg, pair)
	default:
		changed = r.observedApply(pair)
	}
	if r.OnStep != nil {
		r.OnStep(trace.Event{Step: r.steps, Pair: pair, NonNull: changed})
	}
	r.steps++
	if changed {
		r.nonNull++
		r.quiet = 0
	} else {
		r.quiet++
	}
	return changed
}

// applyCompiled applies one pair through the table, keeping the census
// in sync and feeding the observer when one is attached.
func (r *Runner) applyCompiled(pair core.Pair) bool {
	if pair.A >= 0 && pair.B >= 0 {
		m := r.Cfg.Mobile
		x, y := m[pair.A], m[pair.B]
		idx := r.tab.Idx(x, y)
		x2, y2 := r.tab.At(idx)
		changed := x2 != x || y2 != y
		if changed {
			m[pair.A], m[pair.B] = x2, y2
			r.census.Apply(x, y, x2, y2)
		}
		if r.Obs != nil {
			r.Obs.ObserveMobile(pair, x, y, x2, y2, changed)
		}
		return changed
	}
	j := pair.MobilePeer()
	x := r.Cfg.Mobile[j]
	changed := core.ApplyLeader(r.lp, r.Cfg, j)
	if x2 := r.Cfg.Mobile[j]; x2 != x {
		r.census.ApplyOne(x, x2)
	}
	if r.Obs != nil {
		r.Obs.ObserveLeader(pair, x, r.Cfg.Mobile[j], changed)
	}
	return changed
}

// observedApply applies the pair like core.ApplyPair while feeding the
// observer the before/after states for per-rule accounting.
func (r *Runner) observedApply(pair core.Pair) bool {
	if pair.HasLeader() {
		lp, ok := r.Proto.(core.LeaderProtocol)
		if !ok {
			panic(fmt.Sprintf("core: protocol %q has no leader but pair %v involves one", r.Proto.Name(), pair))
		}
		j := pair.MobilePeer()
		x := r.Cfg.Mobile[j]
		changed := core.ApplyLeader(lp, r.Cfg, j)
		r.Obs.ObserveLeader(pair, x, r.Cfg.Mobile[j], changed)
		return changed
	}
	x, y := r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B]
	changed := core.ApplyMobile(r.Proto, r.Cfg, pair.A, pair.B)
	r.Obs.ObserveMobile(pair, x, y, r.Cfg.Mobile[pair.A], r.Cfg.Mobile[pair.B], changed)
	return changed
}

// Silent reports whether the current configuration is terminal, using
// the census counter test on the compiled path (O(1) for the mobile
// side, one pass over the ≤ |Q| occupied states for the leader) and the
// full O(n²) scan on the interpreted path.
func (r *Runner) Silent() bool {
	r.ensureEngine()
	return r.silent()
}

func (r *Runner) silent() bool {
	if r.census != nil {
		return r.census.Silent(r.Cfg.Leader)
	}
	return core.Silent(r.Proto, r.Cfg)
}

// QuietWindow is the default silence-check window for n agents:
// max(64, 4n²) consecutive null interactions. It saturates at
// math.MaxInt above n = 2³⁰, where 4n² would overflow, deferring the
// silence test to the budget boundary.
func QuietWindow(n int) int {
	if n > 1<<30 {
		return math.MaxInt
	}
	return max(64, 4*n*n)
}

func (r *Runner) quietThreshold() int {
	if r.QuietThreshold > 0 {
		return r.QuietThreshold
	}
	return QuietWindow(r.Cfg.N())
}

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed, and returns the result.
// Silence is checked initially and then whenever the execution has been
// quiet (all-null) for a full QuietThreshold window, so the reported
// Steps may include a quiet tail of up to one window. When Obs is set,
// Run finishes it (emitting the final progress snapshot and summary
// record) before returning.
func (r *Runner) Run(maxSteps int) Result {
	res := r.run(maxSteps)
	r.finish(res.Converged)
	return res
}

// finish closes the attached observer. The summary records whether the
// final configuration is a valid naming, and a scheduler that counts
// forced steps (adversary.Scheduler) has its count recorded too.
func (r *Runner) finish(converged bool) {
	if r.Obs == nil {
		return
	}
	if f, ok := r.Sched.(interface{ Forced() int }); ok {
		r.Obs.SetForced(int64(f.Forced()))
	}
	r.Obs.SetValidNaming(r.Cfg.ValidNaming())
	r.Obs.Finish(converged)
}

func (r *Runner) result(converged bool) Result {
	return Result{Converged: converged, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

// run is Run without finishing the observer (Supervise calls it once
// per slice). An injector's due step events fire before the
// interaction that crosses them, and its conv events at a successful
// silence check (see settled). Without an OnStep hook, a compiled
// runner under the random scheduler takes the fused loop, observed or
// not, in segments that end at the injector's next step event or at a
// successful silence check. While the injector suppresses pairs, each
// interaction goes through Step, as it does on the generic path.
func (r *Runner) run(maxSteps int) Result {
	r.ensureEngine()
	inj := r.Inject
	if inj != nil && inj.FireDue(int64(r.steps), r.Cfg) {
		r.Resync()
	}
	if r.silent() && r.settled() {
		return r.result(true)
	}
	threshold := r.quietThreshold()
	fused := r.rnd != nil && r.OnStep == nil
	for r.steps < maxSteps {
		bound := maxSteps
		if inj != nil {
			if next := inj.NextStep(); next >= 0 && int64(r.steps) >= next && inj.FireDue(int64(r.steps), r.Cfg) {
				r.Resync()
			}
			if next := inj.NextStep(); next >= 0 && next < int64(bound) {
				bound = int(next)
			}
		}
		var silent bool
		if fused && r.tab != nil && (inj == nil || !inj.Suppressing()) {
			silent = r.runCompiled(bound, threshold)
		} else {
			r.Step()
			silent = r.quiet > 0 && r.quiet%threshold == 0 && r.silent()
		}
		if silent && r.settled() {
			return r.result(true)
		}
	}
	return r.result(r.silent() && (inj == nil || inj.Exhausted()))
}

// runCompiled is the fused hot loop. It runs interactions until steps
// reaches bound or a silence check succeeds, and reports whether one
// did. It must preserve the exact control flow of the generic path —
// same silence-check points, same counter semantics, the observer fed
// at the same point as applyCompiled feeds it — so that compiled and
// interpreted runs of one seed yield identical Results and journals
// (the differential tests assert this). Instead of testing
// quiet%threshold on every null interaction, it counts down the null
// interactions left to the next check.
func (r *Runner) runCompiled(bound, threshold int) bool {
	var (
		tab     = r.tab
		cs      = r.census
		rnd     = r.rnd
		o       = r.Obs
		m       = r.Cfg.Mobile
		steps   = r.steps
		nonNull = r.nonNull
		quiet   = r.quiet
		left    = threshold - quiet%threshold // null steps to the next check
		silent  = false
	)
	for steps < bound {
		pair := rnd.Next()
		var changed bool
		if pair.A >= 0 && pair.B >= 0 {
			x, y := m[pair.A], m[pair.B]
			idx := tab.Idx(x, y)
			x2, y2 := tab.At(idx)
			if changed = x2 != x || y2 != y; changed {
				m[pair.A], m[pair.B] = x2, y2
				cs.Apply(x, y, x2, y2)
			}
			if o != nil {
				o.ObserveMobile(pair, x, y, x2, y2, changed)
			}
		} else {
			j := pair.MobilePeer()
			x := m[j]
			changed = core.ApplyLeader(r.lp, r.Cfg, j)
			x2 := m[j]
			if x2 != x {
				cs.ApplyOne(x, x2)
			}
			if o != nil {
				o.ObserveLeader(pair, x, x2, changed)
			}
		}
		steps++
		if changed {
			nonNull++
			quiet = 0
			left = threshold
		} else {
			quiet++
			if left--; left == 0 {
				left = threshold
				if cs.Silent(r.Cfg.Leader) {
					silent = true
					break
				}
			}
		}
	}
	r.steps, r.nonNull, r.quiet = steps, nonNull, quiet
	return silent
}

// UniformConfig builds the protocol's intended starting configuration
// for n mobile agents: the uniform initial mobile state when the
// protocol declares one (state 0 otherwise), and the initialized leader
// when the protocol has one.
func UniformConfig(p core.Protocol, n int) *core.Config {
	c := new(core.Config)
	uniformConfig(c, p, n)
	return c
}

// uniformConfig makes c the configuration UniformConfig(p, n) returns.
func uniformConfig(c *core.Config, p core.Protocol, n int) {
	var s core.State
	if up, ok := p.(core.UniformInitProtocol); ok {
		s = up.InitMobile()
	}
	c.Reset(n, s)
	if lp, ok := p.(core.LeaderProtocol); ok {
		c.Leader = lp.InitLeader()
	}
}

// ArbitraryConfig builds an adversarially initialized configuration: all
// mobile states drawn by the protocol's RandomMobile, and — when the
// protocol supports arbitrary leader initialization — a random leader
// state; otherwise the initialized leader.
func ArbitraryConfig(p core.ArbitraryInitProtocol, n int, r *rand.Rand) *core.Config {
	c := new(core.Config)
	arbitraryConfig(c, p, n, r)
	return c
}

// arbitraryConfig makes c the configuration ArbitraryConfig(p, n, r)
// returns.
func arbitraryConfig(c *core.Config, p core.ArbitraryInitProtocol, n int, r *rand.Rand) {
	c.Reset(n, 0)
	for i := range c.Mobile {
		c.Mobile[i] = p.RandomMobile(r)
	}
	switch lp := core.Protocol(p).(type) {
	case core.ArbitraryLeaderProtocol:
		c.Leader = lp.RandomLeader(r)
	case core.LeaderProtocol:
		c.Leader = lp.InitLeader()
	}
}
