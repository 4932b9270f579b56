package fault

import (
	"fmt"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/obs"
)

// Fired records one executed event with the interaction count at which
// it fired.
type Fired struct {
	Event Event
	Step  int64
}

// Injector executes a Plan against a live configuration. sim.Runner
// consults it between interactions: step-triggered events fire before
// the interaction that would cross their step count, and
// convergence-triggered events fire when the runner detects a silent
// configuration. Events fire strictly in plan order — a later event
// never jumps an earlier one, so "@conv:corrupt=2,@9000:crash=1" holds
// the crash until after the first convergence even if step 9000 passes
// first.
//
// An Injector is single-use (one per runner attempt) and not safe for
// concurrent use. All of its randomness comes from its own RNG, seeded
// by mixing the run seed with the plan seed, so one (plan, seed) pair
// fully determines every victim choice and every injected state.
type Injector struct {
	// Sink, when non-nil, receives a v1 "fault" journal record for
	// every fired event. Set it before the run starts.
	Sink obs.Sink
	// Trial tags emitted fault records with a batch trial index.
	Trial int
	// OnEvent, when non-nil, is called for every fired event before the
	// fault is applied, so it observes the pre-fault configuration (the
	// stabilization experiment uses it to check ValidNaming at each
	// detected convergence).
	OnEvent func(ev Event, step int64, cfg *core.Config)

	plan *Plan
	pr   core.Protocol
	ap   core.ArbitraryInitProtocol   // nil unless needed
	alp  core.ArbitraryLeaderProtocol // nil unless needed
	seed int64
	rng  *rand.Rand // seeded from seed on the first draw; see rand

	next      int // index of the next unfired plan event
	initState core.State
	fired     []Fired

	omit     int // interactions still to suppress
	crashed  []bool
	ncrashed int
	scratch  []int // victim-selection index pool
}

// mix64 is the splitmix64 finalizer, used to fold the plan seed into
// the run seed without correlation between nearby seeds.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewInjector builds an injector for one run of protocol pr. It
// validates the plan against the protocol's capabilities up front:
// corrupt events need an ArbitraryInitProtocol (RandomMobile) and
// leader events an ArbitraryLeaderProtocol (RandomLeader), so a
// misdirected plan fails before any stepping instead of mid-run.
func NewInjector(plan *Plan, pr core.Protocol, seed int64) (*Injector, error) {
	inj := &Injector{plan: plan, pr: pr, seed: int64(mix64(uint64(seed)) ^ mix64(uint64(plan.Seed)*0x9e3779b97f4a7c15))}
	if up, ok := pr.(core.UniformInitProtocol); ok {
		inj.initState = up.InitMobile()
	}
	for _, ev := range plan.Events {
		switch ev.Kind {
		case Corrupt:
			ap, ok := pr.(core.ArbitraryInitProtocol)
			if !ok {
				return nil, fmt.Errorf("fault: protocol %q does not support corruption (no RandomMobile)", pr.Name())
			}
			inj.ap = ap
		case Leader:
			alp, ok := pr.(core.ArbitraryLeaderProtocol)
			if !ok {
				return nil, fmt.Errorf("fault: protocol %q does not support leader corruption (no RandomLeader)", pr.Name())
			}
			inj.alp = alp
		}
	}
	return inj, nil
}

// Empty reports whether the plan schedules no events at all.
func (inj *Injector) Empty() bool { return inj.plan.Empty() }

// Exhausted reports whether every plan event has fired.
func (inj *Injector) Exhausted() bool { return inj.next >= len(inj.plan.Events) }

// Fired returns the log of executed events in firing order (aliased,
// not copied).
func (inj *Injector) Fired() []Fired { return inj.fired }

// NextStep returns the trigger step of the next unfired event when it
// is step-triggered, and -1 when the plan is exhausted or waiting on a
// convergence trigger.
func (inj *Injector) NextStep() int64 {
	if inj.next >= len(inj.plan.Events) {
		return -1
	}
	return inj.plan.Events[inj.next].Step // ConvStep is already -1
}

// FireDue fires every leading plan event whose step trigger has been
// reached (Step <= step), stopping at the first convergence-triggered
// or future event. It reports whether any fired event mutated the
// configuration (in which case the caller must Resync its census).
func (inj *Injector) FireDue(step int64, cfg *core.Config) (mutated bool) {
	for inj.next < len(inj.plan.Events) {
		ev := inj.plan.Events[inj.next]
		if ev.Step == ConvStep || ev.Step > step {
			return mutated
		}
		if inj.apply(ev, step, cfg, "step") {
			mutated = true
		}
	}
	return mutated
}

// FireConv fires the next event if it is convergence-triggered. The
// runner calls it when it detects a silent configuration; at most one
// conv event fires per detected convergence, so a plan with E conv
// events spans E fault epochs. It reports whether an event fired and
// whether it mutated the configuration.
func (inj *Injector) FireConv(step int64, cfg *core.Config) (fired, mutated bool) {
	if inj.next >= len(inj.plan.Events) {
		return false, false
	}
	ev := inj.plan.Events[inj.next]
	if ev.Step != ConvStep {
		return false, false
	}
	return true, inj.apply(ev, step, cfg, "conv")
}

// rand returns the injector's RNG, seeding it on first use. Seeding a
// math/rand source takes some 1,800 generator steps, and an injector
// that never draws — admission's capability check, or a run that ends
// before its first drawing event — need not pay for it.
func (inj *Injector) rand() *rand.Rand {
	if inj.rng == nil {
		inj.rng = rand.New(rand.NewSource(inj.seed))
	}
	return inj.rng
}

// apply executes one event, advances the plan cursor, logs and journals
// the firing, and reports whether the configuration was mutated.
func (inj *Injector) apply(ev Event, step int64, cfg *core.Config, trigger string) (mutated bool) {
	inj.next++
	if inj.OnEvent != nil {
		inj.OnEvent(ev, step, cfg)
	}
	switch ev.Kind {
	case Corrupt:
		for _, i := range inj.victims(ev.Arg, cfg.N(), nil) {
			cfg.Mobile[i] = inj.ap.RandomMobile(inj.rand())
		}
		mutated = true
	case Leader:
		cfg.Leader = inj.alp.RandomLeader(inj.rand())
		mutated = true
	case Crash:
		if inj.crashed == nil {
			inj.crashed = make([]bool, cfg.N())
		}
		// Crash only live agents; clamp to however many remain.
		for _, i := range inj.victims(ev.Arg, cfg.N(), func(i int) bool { return !inj.crashed[i] }) {
			inj.crashed[i] = true
			inj.ncrashed++
		}
	case Churn:
		for _, i := range inj.victims(ev.Arg, cfg.N(), nil) {
			cfg.Mobile[i] = inj.initState
			if inj.crashed != nil && inj.crashed[i] {
				inj.crashed[i] = false
				inj.ncrashed--
			}
		}
		mutated = true
	case Omit:
		inj.omit += ev.Arg
	}
	inj.fired = append(inj.fired, Fired{Event: ev, Step: step})
	if inj.Sink != nil {
		_ = inj.Sink.Emit(obs.NewFaultRec(inj.Trial, step, ev.Kind.String(), ev.Arg, trigger))
	}
	return mutated
}

// victims selects min(k, eligible) distinct agent indices by a partial
// Fisher–Yates shuffle over the injector-owned scratch slice, drawing
// from the agents passing the eligibility filter (all when nil).
func (inj *Injector) victims(k, n int, eligible func(int) bool) []int {
	if cap(inj.scratch) < n {
		inj.scratch = make([]int, 0, n)
	}
	idx := inj.scratch[:0]
	for i := 0; i < n; i++ {
		if eligible == nil || eligible(i) {
			idx = append(idx, i)
		}
	}
	inj.scratch = idx
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		j := i + inj.rand().Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Suppress reports whether the next scheduled interaction must be
// dropped (a pending omission burst, or a pair touching a crashed
// agent). A suppressed interaction still counts as a (null) step. The
// no-fault fast path is two integer compares.
func (inj *Injector) Suppress(pair core.Pair) bool {
	if inj.omit == 0 && inj.ncrashed == 0 {
		return false
	}
	if inj.omit > 0 {
		inj.omit--
		return true
	}
	if pair.A >= 0 && inj.crashed[pair.A] {
		return true
	}
	return pair.B >= 0 && inj.crashed[pair.B]
}

// Crashed reports whether agent i is currently crashed.
func (inj *Injector) Crashed(i int) bool {
	return inj.crashed != nil && inj.crashed[i]
}

// NumCrashed returns the number of currently crashed agents.
func (inj *Injector) NumCrashed() int { return inj.ncrashed }
