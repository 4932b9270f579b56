package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/rng"
	"popnaming/internal/sched"
)

// recipe is what AgentTrial and CountTrial record of a trial for the
// worker that runs it to build.
type recipe struct {
	kind      recipeKind
	n         int
	init      string
	seed      int64 // the start's and the injector's
	schedKey  string
	schedSeed int64
	plan      *fault.Plan
}

type recipeKind uint8

const (
	built recipeKind = iota // the trial carries its objects
	agentRecipe
	countRecipe
)

// AgentTrial returns an agent trial that the worker running it builds
// in its workspace (see RunBatch): the start AgentStart(p, n, initKey,
// seed) returns, the scheduler AgentScheduler(p, n, schedKey,
// schedSeed) returns and, for a non-empty plan, the injector
// fault.NewInjector(plan, p, seed) returns. A request those reject
// fails the trial with the error in BatchResult.Err.
func AgentTrial(n int, initKey string, seed int64, schedKey string, schedSeed int64, plan *fault.Plan) Trial {
	return Trial{recipe: recipe{kind: agentRecipe, n: n, init: initKey, seed: seed, schedKey: schedKey, schedSeed: schedSeed, plan: plan}}
}

// CountTrial returns a count trial that the worker running it builds in
// its workspace: the start CountStart(p, n, initKey) returns, run with
// engine seed seed.
func CountTrial(n int, initKey string, seed int64) Trial {
	return Trial{Seed: seed, recipe: recipe{kind: countRecipe, n: n, init: initKey}}
}

// workspace is the trial state one batch goroutine owns while it runs
// trials: each trial and stall-retry attempt resets its parts in place
// instead of building new ones.
type workspace struct {
	start agentStart
	rnd   sched.Random
	inj   fault.Injector
	run   Runner
	count core.CountConfig
	crun  CountRunner
	obs   obs.Observer
}

// workspaces holds the workspaces of goroutines that left their batch,
// for the next batch goroutine of any batch to take.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// fill builds t's recipe, if it has one, in ws and sets t's fields to
// the parts it built.
func (ws *workspace) fill(pr core.Protocol, t *Trial) error {
	r := t.recipe
	switch r.kind {
	case agentRecipe:
		if err := ws.start.reset(pr, r.n, r.init, r.seed); err != nil {
			return err
		}
		sc, err := agentScheduler(&ws.rnd, pr, r.n, r.schedKey, r.schedSeed)
		if err != nil {
			return err
		}
		t.Cfg, t.Sched = &ws.start.cfg, sc
		if !r.plan.Empty() {
			if err := ws.inj.Reset(r.plan, pr, r.seed); err != nil {
				return err
			}
			t.Inject = &ws.inj
		}
	case countRecipe:
		if err := countStart(&ws.count, pr, r.n, r.init); err != nil {
			return err
		}
		t.Count = &ws.count
	}
	return nil
}

// runner resets ws's runner for attempt t of trial i, with its injector
// and an observer journaling to bo.Sink wired in.
func (ws *workspace) runner(pr core.Protocol, tab *core.Compiled, i int, t Trial, bo BatchObs) *Runner {
	run := &ws.run
	run.reset(pr, t.Sched, t.Cfg)
	if t.Inject != nil {
		t.Inject.Trial = i
		if bo.Sink != nil {
			t.Inject.Sink = bo.Sink
		}
		run.Inject = t.Inject
	}
	if bo.Sink != nil {
		ws.obs.Reset(t.Cfg.N(), t.Cfg.Leader != nil, obs.ObserverOptions{
			Sink:          bo.Sink,
			ProgressEvery: bo.ProgressEvery,
			Trial:         i,
		})
		run.Obs = &ws.obs
	}
	if tab != nil {
		run.UseCompiled(tab)
	}
	return run
}

// runCount runs count trial i on ws's count runner: one unsliced Run
// over the whole budget that polls ctx, journaling through a
// trial-tagged observer. A trial the cancel stops mid-run is
// TrialAborted/"canceled" with its partial result.
func (ws *workspace) runCount(ctx context.Context, pr core.Protocol, tab *core.Compiled, i int, t Trial, budget int, bo BatchObs) BatchResult {
	run := &ws.crun
	if err := run.reset(pr, tab, t.Count, t.Seed); err != nil {
		return BatchResult{Trial: i, Err: err}
	}
	canceled := false
	run.Interrupt = func() bool {
		canceled = ctx.Err() != nil
		return canceled
	}
	if bo.Sink != nil {
		ws.obs.Reset(t.Count.N(), t.Count.Leader != nil, obs.ObserverOptions{
			Sink:          bo.Sink,
			ProgressEvery: bo.ProgressEvery,
			Trial:         i,
			NoPairs:       true,
		})
		run.Obs = &ws.obs
	}
	res, err := run.Run(budget)
	br := BatchResult{Trial: i, Result: Result{Converged: res.Converged, Steps: res.Steps, NonNull: res.NonNull}, Attempts: 1, Err: err}
	if canceled {
		br.Status, br.Reason = TrialAborted, "canceled"
	}
	return br
}

// agentStart is an agent-engine start together with the generator an
// arbitrary start is drawn from; reset rebuilds both in place. The
// generator is an rng.Lazy: an arbitrary start draws about one word per
// agent, so at the small populations a grid cell runs, seeding all 607
// register words would cost more than the draws.
type agentStart struct {
	cfg core.Config
	rnd *rand.Rand // allocated on the first arbitrary start
}

// reset makes s.cfg the configuration AgentStart(p, n, initKey, seed)
// returns, and reports the same error.
func (s *agentStart) reset(p core.Protocol, n int, initKey string, seed int64) error {
	switch initKey {
	case "zero":
		s.cfg.Reset(n, 0)
		if lp, ok := p.(core.LeaderProtocol); ok {
			s.cfg.Leader = lp.InitLeader()
		}
		return nil
	case "uniform":
		uniformConfig(&s.cfg, p, n)
		return nil
	case "arbitrary":
		ap, ok := p.(core.ArbitraryInitProtocol)
		if !ok {
			return fmt.Errorf("protocol %q does not support arbitrary initialization", p.Name())
		}
		if s.rnd == nil {
			s.rnd = rand.New(new(rng.Lazy))
		}
		s.rnd.Seed(seed)
		arbitraryConfig(&s.cfg, ap, n, s.rnd)
		return nil
	}
	return fmt.Errorf("unknown init %q (zero | uniform | arbitrary)", initKey)
}
