package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/report"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// EpochStat aggregates one fault epoch across trials: epoch 0 is the
// initial convergence from the arbitrary start, epoch e >= 1 the
// re-convergence after the e-th injected fault.
type EpochStat struct {
	Epoch int
	// Trials is the number of trials contributing a recovery
	// measurement; Failures counts trials that never reached this
	// epoch, did not re-converge, or re-converged to an invalid naming.
	Trials   int
	Failures int
	// MedianSteps and MaxSteps summarize the epoch's recovery cost in
	// interactions (from the previous convergence to this one,
	// quiet-tail included).
	MedianSteps float64
	MaxSteps    int64
}

// StabilizeResult is the multi-epoch stabilization experiment (E22) for
// one protocol: converge, inject, measure re-convergence, for E epochs,
// under run supervision. It is the closure property the recovery
// experiment (E13) cannot see — E13 rebuilds a fresh runner per phase,
// E22 keeps one runner (and one compiled census) alive across every
// fault.
type StabilizeResult struct {
	Protocol string
	N, P     int
	Plan     string
	Trials   int
	Epochs   []EpochStat
	// Aborted and Retried are the supervision counters; OK reports that
	// every trial converged through every epoch to a valid naming with
	// nothing aborted.
	Aborted int
	Retried int
	OK      bool
}

// StabilizeOptions configures the experiment.
type StabilizeOptions struct {
	// N is the population size (default P of the protocol instance).
	N int
	// Epochs is the number of injected faults (default 3), giving
	// Epochs+1 convergences per trial.
	Epochs int
	// CorruptK is the number of agents corrupted per fault (default 2,
	// clamped to N).
	CorruptK int
	// Plan overrides the default per-epoch corruption plan with an
	// explicit fault plan (the CLI's -faults flag); when set, Epochs
	// and CorruptK are ignored.
	Plan *fault.Plan
	// Trials per protocol (default 10).
	Trials int
	// Budget is the per-trial interaction budget across all epochs
	// (default 50M).
	Budget int
	// Deadline bounds the whole batch's wall clock (0: none).
	Deadline time.Duration
	// Retries is the per-trial stall-retry allowance.
	Retries int
	// StallQuiet overrides stall detection (0: a multiple of the
	// silence-check window).
	StallQuiet int
	Workers    int
	Seed       int64
	// Sink, when non-nil, receives per-trial summaries, fault records
	// and the batch summary.
	Sink obs.Sink
	// Trace, when enabled, is threaded through to the supervised batch
	// so every trial/attempt/slice journals a span (see obs.SpanContext).
	Trace obs.SpanContext
	// Interrupt, when non-nil, aborts remaining work when it returns
	// true (the SIGINT path).
	Interrupt func() bool
}

func (o *StabilizeOptions) fill(p int) {
	if o.N == 0 {
		o.N = p
	}
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.CorruptK == 0 {
		o.CorruptK = 2
	}
	if o.CorruptK > o.N {
		o.CorruptK = o.N
	}
	if o.Trials == 0 {
		o.Trials = 10
	}
	if o.Budget == 0 {
		o.Budget = 50_000_000
	}
	if o.StallQuiet == 0 {
		// A streak of many silence-check windows with no silence means
		// the run is wedged (e.g. a crashed agent pinning an active
		// pair).
		o.StallQuiet = 2048 * sim.QuietWindow(o.N)
	}
}

// trialEpochs is the per-trial record the injector's OnEvent callback
// fills: convergence validity per epoch, written only by the worker
// goroutine that owns the trial.
type trialEpochs struct {
	inj   *fault.Injector
	valid []bool
}

// Stabilize runs the multi-epoch stabilization experiment for one
// arbitrary-init protocol: each trial starts from an adversarial
// configuration, converges, and survives opts.Epochs convergence-
// triggered k-corruptions, all within one supervised runner whose
// census is resynced after every fault.
func Stabilize(name string, pr core.ArbitraryInitProtocol, opts StabilizeOptions) StabilizeResult {
	opts.fill(pr.P())
	if opts.Plan != nil && !opts.Plan.Empty() {
		return StabilizePlan(name, pr, opts.Plan, opts)
	}
	plan := &fault.Plan{}
	for e := 0; e < opts.Epochs; e++ {
		plan.Events = append(plan.Events, fault.Event{Step: fault.ConvStep, Kind: fault.Corrupt, Arg: opts.CorruptK})
	}
	return StabilizePlan(name, pr, plan, opts)
}

// StabilizePlan is Stabilize with an explicit fault plan (the CLI's
// -faults path). Recovery epochs are delimited by the plan's
// convergence-triggered events; step-triggered events fall inside
// whichever epoch is in progress when they fire.
//
// Protocols whose leader must be initialized (LeaderProtocol without
// RandomLeader — Prop 14/17, the counting substrate) get their leader
// rebooted to InitLeader at every convergence-triggered fault:
// arbitrary mobile states against an *evolved* leader is outside every
// claim the paper makes for them, so each epoch restarts the protocol's
// documented regime (the leader models a protected, rebootable node).
// Self-stabilizing-leader protocols keep their evolved leader.
func StabilizePlan(name string, pr core.ArbitraryInitProtocol, plan *fault.Plan, opts StabilizeOptions) StabilizeResult {
	opts.fill(pr.P())
	epochs := plan.Conv()
	res := StabilizeResult{Protocol: name, N: opts.N, P: pr.P(), Plan: plan.String(), Trials: opts.Trials}
	hasLeader := core.HasLeader(pr)
	var resetLeader func(cfg *core.Config)
	if lp, ok := core.Protocol(pr).(core.LeaderProtocol); ok {
		if _, arb := core.Protocol(pr).(core.ArbitraryLeaderProtocol); !arb {
			resetLeader = func(cfg *core.Config) { cfg.Leader = lp.InitLeader() }
		}
	}

	slots := make([]*trialEpochs, opts.Trials)
	sup := sim.Supervision{
		StepBudget: opts.Budget,
		Deadline:   opts.Deadline,
		StallQuiet: opts.StallQuiet,
		Retries:    opts.Retries,
		Interrupt:  opts.Interrupt,
		Trace:      opts.Trace,
	}
	bo := sim.BatchObs{Sink: opts.Sink}
	sum := sim.RunBatch(context.Background(), pr, 0, opts.Trials, opts.Workers, sup, bo, func(trial, attempt int) sim.Trial {
		seed := sim.DeriveSeed(opts.Seed, trial, attempt)
		rng := rand.New(rand.NewSource(seed))
		cfg := sim.ArbitraryConfig(pr, opts.N, rng)
		inj, err := fault.NewInjector(plan, pr, seed)
		if err != nil {
			// Capability mismatch is caught by the caller's protocol
			// selection; reaching here is a programming error.
			panic(err)
		}
		// slots[trial] is written only by the worker goroutine that owns
		// the trial; attempts of one trial run sequentially, and each
		// attempt starts a fresh record.
		slot := &trialEpochs{inj: inj}
		slots[trial] = slot
		inj.OnEvent = func(ev fault.Event, step int64, cfg *core.Config) {
			if ev.Step == fault.ConvStep {
				// Called at a detected convergence before the fault is
				// applied: cfg is the configuration this epoch
				// converged to.
				slot.valid = append(slot.valid, cfg.ValidNaming())
				if resetLeader != nil {
					// Reboot the initialized-only leader so the next
					// epoch starts inside the protocol's regime; the
					// runner resyncs after the fault regardless.
					resetLeader(cfg)
				}
			}
		}
		return sim.Trial{Cfg: cfg, Sched: sched.NewRandom(opts.N, hasLeader, seed+1), Inject: inj}
	})

	res.Aborted, res.Retried = sum.Aborted, sum.Retried
	// Per-epoch recovery distributions. Epoch e < epochs ends at the
	// e-th convergence-triggered firing; the final epoch ends at the
	// run's converged result.
	steps := make([][]int64, epochs+1)
	failures := make([]int, epochs+1)
	for trial, br := range sum.Results {
		slot := slots[trial]
		var conv []fault.Fired
		if slot != nil {
			for _, f := range slot.inj.Fired() {
				if f.Event.Step == fault.ConvStep {
					conv = append(conv, f)
				}
			}
		}
		prev := int64(0)
		for e := 0; e <= epochs; e++ {
			var end int64
			valid := false
			switch {
			case e < len(conv):
				end = conv[e].Step
				valid = slot.valid[e]
			case e == epochs && br.Result.Converged && len(conv) == epochs:
				end = int64(br.Result.Steps)
				valid = br.Result.Final.ValidNaming()
			default:
				// The trial never reached this epoch's convergence.
				failures[e]++
				continue
			}
			if !valid {
				failures[e]++
			} else {
				steps[e] = append(steps[e], end-prev)
			}
			prev = end
		}
	}
	res.OK = res.Aborted == 0
	for e := 0; e <= epochs; e++ {
		st := EpochStat{Epoch: e, Trials: len(steps[e]), Failures: failures[e]}
		if len(steps[e]) > 0 {
			s := steps[e]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			st.MedianSteps = float64(s[len(s)/2])
			st.MaxSteps = s[len(s)-1]
		}
		if st.Failures > 0 || st.Trials == 0 {
			res.OK = false
		}
		res.Epochs = append(res.Epochs, st)
	}
	return res
}

// stabilizeN picks a valid population size for a registry protocol at
// bound P: ssle needs N = P exactly, the counting substrate names only
// N < P, and Protocol 3 at N = P hits its documented cost blow-up
// (E12b), so those two are exercised at N = P-1.
func stabilizeN(key string, p int) int {
	switch key {
	case "counting", "globalp":
		return p - 1
	default:
		return p
	}
}

// StabilizeAll runs the stabilization experiment for every
// arbitrary-init protocol in the registry (sorted by key), at a
// protocol-appropriate population size for the given bound.
func StabilizeAll(p int, opts StabilizeOptions) []StabilizeResult {
	var out []StabilizeResult
	reg := Registry()
	for _, key := range RegistryKeys() {
		if opts.Interrupt != nil && opts.Interrupt() {
			break
		}
		spec := reg[key]
		pr, ok := spec.New(p).(core.ArbitraryInitProtocol)
		if !ok {
			continue
		}
		o := opts
		o.N = stabilizeN(key, p)
		out = append(out, Stabilize(key, pr, o))
	}
	return out
}

// RenderStabilize prints stabilization results.
func RenderStabilize(w io.Writer, results []StabilizeResult) {
	tab := report.NewTable("Multi-epoch stabilization (median/max interactions per recovery epoch; epoch 0 = initial convergence)",
		"protocol", "N", "epoch", "median steps", "max steps", "failures", "aborted", "retried", "ok")
	for _, res := range results {
		for _, e := range res.Epochs {
			tab.AddRowf(res.Protocol, res.N, e.Epoch,
				fmt.Sprintf("%.0f", e.MedianSteps), e.MaxSteps, e.Failures, res.Aborted, res.Retried, res.OK)
		}
	}
	tab.Render(w)
}
