package fault

import (
	"fmt"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/obs"
	"popnaming/internal/rng"
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

	plan *Plan
	pr   core.Protocol
	ap   core.ArbitraryInitProtocol   // nil unless needed
	alp  core.ArbitraryLeaderProtocol // nil unless needed
	lp   core.LeaderProtocol          // nil unless needed
	seed int64
	src  *rng.Source // seeded from seed on the first draw; see rand
	rng  *rand.Rand  // draws from src

	next      int // index of the next unfired plan event
	initState core.State
	fired     []Fired

	omit     int // interactions still to suppress
	crashed  []bool
	ncrashed int
	scratch  []int // victim-selection index pool
}

// NewInjector builds an injector for one run of protocol pr. It
// validates the plan against the protocol's capabilities up front:
// corrupt events need an ArbitraryInitProtocol (RandomMobile), leader
// events an ArbitraryLeaderProtocol (RandomLeader) and reboot events a
// LeaderProtocol (InitLeader), so a misdirected plan fails before any
// stepping instead of mid-run.
func NewInjector(plan *Plan, pr core.Protocol, seed int64) (*Injector, error) {
	inj := &Injector{plan: plan, pr: pr, seed: int64(obs.Mix64(uint64(seed)) ^ obs.Mix64(uint64(plan.Seed)*0x9e3779b97f4a7c15))}
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
		case Reboot:
			lp, ok := pr.(core.LeaderProtocol)
			if !ok {
				return nil, fmt.Errorf("fault: protocol %q has no leader to reboot (no InitLeader)", pr.Name())
			}
			inj.lp = lp
		}
	}
	return inj, nil
}

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
		if inj.apply(ev, step, cfg, "step", nil) {
			mutated = true
		}
	}
	return mutated
}

// FireConv fires the next group if it is convergence-triggered: the
// conv event at the cursor and every event joined to it, in plan
// order. The runner calls it when it detects a silent configuration;
// one group fires per detected convergence, so a plan with E conv
// groups spans E fault epochs. Each member journals its own record,
// and every record carries whether cfg — the configuration the epoch
// converged to, read before the group applies — is a valid naming. It
// reports whether a group fired and whether it mutated the
// configuration.
func (inj *Injector) FireConv(step int64, cfg *core.Config) (fired, mutated bool) {
	events := inj.plan.Events
	if inj.next >= len(events) || events[inj.next].Step != ConvStep {
		return false, false
	}
	var valid *bool
	if inj.Sink != nil {
		v := cfg.ValidNaming()
		valid = &v
	}
	for {
		if inj.apply(events[inj.next], step, cfg, "conv", valid) {
			mutated = true
		}
		if inj.next >= len(events) || !events[inj.next].Join {
			return true, mutated
		}
	}
}

// rand returns the injector's RNG, seeding it on first use. Seeding
// fills a 607-word generator register, and an injector that never
// draws — admission's capability check, or a run that ends before its
// first drawing event — need not pay for it.
func (inj *Injector) rand() *rand.Rand {
	if inj.rng == nil {
		inj.src = rng.Get(inj.seed)
		inj.rng = rand.New(inj.src)
	}
	return inj.rng
}

// Release hands the generator back for reuse (see rng.Get) once the
// run is over. The injector must not be used afterwards.
func (inj *Injector) Release() {
	if inj.src != nil {
		rng.Put(inj.src)
		inj.src, inj.rng = nil, nil
	}
}

// apply executes one event, advances the plan cursor, logs and journals
// the firing (with valid as the record's validNaming), and reports
// whether the configuration was mutated.
func (inj *Injector) apply(ev Event, step int64, cfg *core.Config, trigger string, valid *bool) (mutated bool) {
	inj.next++
	switch ev.Kind {
	case Corrupt:
		for _, i := range inj.victims(ev.Arg, cfg.N(), nil) {
			cfg.Mobile[i] = inj.ap.RandomMobile(inj.rand())
		}
		mutated = true
	case Leader:
		cfg.Leader = inj.alp.RandomLeader(inj.rand())
		mutated = true
	case Reboot:
		cfg.Leader = inj.lp.InitLeader()
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
		rec := obs.NewFaultRec(inj.Trial, step, ev.Kind.String(), ev.Arg, trigger)
		rec.ValidNaming = valid
		_ = inj.Sink.Emit(rec)
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

// NumCrashed returns the number of currently crashed agents.
func (inj *Injector) NumCrashed() int { return inj.ncrashed }
