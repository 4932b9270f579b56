package impossible

import (
	"fmt"

	"popnaming/internal/core"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// Reduced executions are the technical device of the paper's Section
// 3.1 (the Theorem 11 proof): whenever a pair of homonyms in a state
// s != sink appears, it is immediately "reduced" — the homonym pair
// interacts until both agents sit in the sink state — before any other
// interaction happens. Configurations between reductions ("reduced
// configurations") then contain no homonyms except sink-state ones,
// which makes the leader's knowledge analyzable. Corollary 7 shows
// forcing reductions preserves weak fairness.
//
// ReducedRunner wraps a base scheduler and interleaves the forced
// reducing sequences, exposing the reduced configurations for
// invariant checking.

// ReducedRunner drives a reduced execution of a protocol whose
// mobile-mobile rule sends homonyms to a sink state (Protocols 1-3).
type ReducedRunner struct {
	Proto core.Protocol
	Cfg   *core.Config
	Base  sched.Scheduler
	Sink  core.State

	steps      int
	reductions int
}

// NewReducedRunner returns a runner over the given protocol, base
// scheduler and configuration. It immediately reduces any homonyms
// present in the starting configuration.
func NewReducedRunner(p core.Protocol, s sched.Scheduler, cfg *core.Config, sink core.State) *ReducedRunner {
	r := &ReducedRunner{Proto: p, Cfg: cfg, Base: s, Sink: sink}
	r.reduceAll()
	return r
}

// Steps returns the total interactions executed, including reducing
// ones.
func (r *ReducedRunner) Steps() int { return r.steps }

// Reductions returns how many reducing interactions were forced.
func (r *ReducedRunner) Reductions() int { return r.reductions }

// Step executes one base-scheduler interaction followed by the forced
// reducing sequence, leaving Cfg in a reduced configuration. It reports
// whether any state changed.
func (r *ReducedRunner) Step() bool {
	changed := core.ApplyPair(r.Proto, r.Cfg, r.Base.Next())
	r.steps++
	if r.reduceAll() {
		changed = true
	}
	return changed
}

// reduceAll applies reducing interactions until the configuration is
// reduced, and reports whether any reduction happened. Each non-sink
// homonym pair interacts repeatedly until both members reach the sink
// (for the HomonymRule protocols a single interaction suffices; the
// loop supports multi-step reducing sequences (s,s) ->* (sink,sink) as
// in the paper's general setting, with a safety bound).
func (r *ReducedRunner) reduceAll() bool {
	any := false
	for {
		i, j, ok := r.findHomonyms()
		if !ok {
			return any
		}
		for guard := 0; r.Cfg.Mobile[i] != r.Sink || r.Cfg.Mobile[j] != r.Sink; guard++ {
			if guard > r.Proto.States() {
				panic(fmt.Sprintf("impossible: homonym pair (%d,%d) does not reduce to sink %d",
					i, j, r.Sink))
			}
			core.ApplyMobile(r.Proto, r.Cfg, i, j)
			r.steps++
			r.reductions++
			any = true
		}
	}
}

// findHomonyms locates a non-sink homonym pair.
func (r *ReducedRunner) findHomonyms() (int, int, bool) {
	seen := make(map[core.State]int)
	for i, s := range r.Cfg.Mobile {
		if s == r.Sink {
			continue
		}
		if j, ok := seen[s]; ok {
			return j, i, true
		}
		seen[s] = i
	}
	return 0, 0, false
}

// IsReduced reports whether a configuration is reduced with respect to
// the sink: no two mobile agents share a non-sink state.
func IsReduced(c *core.Config, sink core.State) bool {
	seen := make(map[core.State]bool)
	for _, s := range c.Mobile {
		if s == sink {
			continue
		}
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Run executes reduced steps until the configuration is silent or the
// budget is exhausted, returning whether it converged.
func (r *ReducedRunner) Run(maxSteps int) bool {
	quiet := 0
	threshold := sim.QuietWindow(r.Cfg.N())
	for r.steps < maxSteps {
		if r.Step() {
			quiet = 0
		} else {
			quiet++
		}
		if quiet > 0 && quiet%threshold == 0 && core.Silent(r.Proto, r.Cfg) {
			return true
		}
	}
	return core.Silent(r.Proto, r.Cfg)
}
