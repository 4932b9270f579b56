package serve

import (
	"context"
	"fmt"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sim"
)

// checkInit reports whether sim.AgentStart accepts initKey for proto.
// It builds nothing, so admission checks the key without drawing an
// arbitrary configuration.
func checkInit(proto core.Protocol, initKey string) error {
	switch initKey {
	case "zero", "uniform":
		return nil
	case "arbitrary":
		if _, ok := proto.(core.ArbitraryInitProtocol); !ok {
			return fmt.Errorf("protocol %q does not support arbitrary initialization", proto.Name())
		}
		return nil
	default:
		return fmt.Errorf("unknown init %q (zero | uniform | arbitrary)", initKey)
	}
}

// Header returns the job's v1 stream header under the given tool
// name. It is the first record of every result stream; its seed is the
// resolved one, so the stream is self-describing for replay.
func (p *Prepared) Header(tool string) obs.Header {
	sp := p.spec
	hdr := obs.NewHeader(tool)
	hdr.N = sp.N
	hdr.Scheduler = sp.Sched
	hdr.Init = sp.Init
	hdr.Budget = sp.Budget
	hdr.Trials = sp.Trials
	hdr.Workers = sp.Workers
	hdr.Seed = sp.Seed
	hdr.SeedDerived = p.seedDerived
	if p.proto != nil {
		hdr.Protocol = p.proto.Name()
		hdr.P = p.proto.P()
		hdr.States = p.proto.States()
		hdr.Leader = core.HasLeader(p.proto)
	} else {
		hdr.P = sp.P
	}
	if sp.Engine == "count" {
		hdr.Engine = "count"
	}
	return hdr
}

// header builds the job's stream header.
func (j *Job) header() obs.Header {
	hdr := j.v.Header("ppserved")
	if j.traceID != 0 {
		hdr.Trace = j.traceID.String()
	}
	return hdr
}

// supervisionFor translates a prepared spec's bounds into a
// sim.Supervision wired to sink (tracing disabled).
func supervisionFor(p *Prepared, sink obs.Sink) sim.Supervision {
	sp := p.spec
	return sim.Supervision{
		StepBudget: sp.Budget,
		Deadline:   time.Duration(sp.DeadlineMS) * time.Millisecond,
		StallQuiet: sp.Stall,
		Retries:    sp.Retries,
		Sink:       sink,
	}
}

// execute runs the job's workload on the worker goroutine, streaming
// records into the job buffer. Cancellation arrives through j.ctx and
// aborts at the next supervision check; the generic lifecycle
// (state transition, terminal record, buffer close) is runJob's.
//
// Every stream starts with the job header; a traced stream follows it
// with the sealed queue span, so the first span a client sees already
// locates the job in its trace before workload records arrive.
func (s *Server) execute(j *Job) error {
	if err := j.buf.Emit(j.header()); err != nil {
		return err
	}
	j.queueSpan.End()
	switch j.v.spec.Kind {
	case KindSim:
		if j.v.spec.Engine == "count" {
			return s.runCountSim(j)
		}
		return s.runSim(j)
	case KindBatch:
		if s.distEligible(j) {
			return s.runDistBatch(j)
		}
		return s.runBatch(j)
	case KindTable1:
		return s.runTable1(j)
	default:
		return fmt.Errorf("unreachable job kind %q", j.v.spec.Kind)
	}
}

// runSim executes one supervised trial with per-attempt seeds
// sim.DeriveSeed(seed, 0, attempt) (the job seed itself on attempt 0),
// scheduler seed attemptSeed+1 — the batch recipe's scheduler role —
// and a fresh injector seeded with attemptSeed per attempt. namesim's
// supervised path seeds its scheduler with the attempt seed itself, so
// a sim job and a same-seed namesim run draw different schedules.
// Attempt and slice spans parent under the job's root span (disabled
// for untraced jobs).
func (s *Server) runSim(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	sup := supervisionFor(j.v, j.buf)
	sup.Trace = j.traceCtx()
	var finalCfg *core.Config
	sr := sim.Supervise(j.ctx, sup, func(attempt int) *sim.Runner {
		seed := sp.Seed
		if attempt > 0 {
			seed = sim.DeriveSeed(sp.Seed, 0, attempt)
		}
		cfg, _ := sim.AgentStart(pr, sp.N, sp.Init, seed)
		finalCfg = cfg
		sc, _ := sim.AgentScheduler(pr, sp.N, sp.Sched, seed+1)
		runner := sim.NewRunner(pr, sc, cfg)
		if !j.v.plan.Empty() {
			inj, _ := fault.NewInjector(j.v.plan, pr, seed)
			inj.Sink = j.buf
			runner.Inject = inj
		}
		o := obs.NewObserver(sp.N, core.HasLeader(pr), obs.ObserverOptions{
			Sink:          j.buf,
			ProgressEvery: sp.ProgressEvery,
		})
		runner.Obs = o
		j.setLive(o)
		return runner
	})
	sum := &JobSummary{
		Status:    sr.Status.String(),
		Reason:    sr.Reason,
		Converged: sr.Converged,
		Steps:     int64(sr.Steps),
		NonNull:   int64(sr.NonNull),
		OK:        sr.Status != sim.TrialAborted,
	}
	if finalCfg != nil {
		sum.ValidNaming = finalCfg.ValidNaming()
	}
	j.setSummary(sum)
	converged := 0
	if sr.Converged {
		converged = 1
	}
	s.met.addTrials(1, converged, int64(sr.Steps), int64(sr.NonNull))
	return nil
}

// runCountSim executes one count-engine trial. The engine seed is
// sp.Seed+1 — the scheduler-seed role (see CountRunner.Seed), matching
// runSim's attempt-0 scheduler wiring, so a count sim job and the
// equivalent namesim -engine count run share the seed recipe shape.
func (s *Server) runCountSim(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	cc, err := sim.CountStart(pr, sp.N, sp.Init)
	if err != nil {
		return err
	}
	runner, err := sim.NewCountRunner(pr, cc, sp.Seed+1)
	if err != nil {
		return err
	}
	runner.Interrupt = func() bool { return j.ctx.Err() != nil }
	o := obs.NewObserver(sp.N, core.HasLeader(pr), obs.ObserverOptions{
		Sink:          j.buf,
		ProgressEvery: sp.ProgressEvery,
		NoPairs:       true,
	})
	runner.Obs = o
	j.setLive(o)
	res, err := runner.Run(sp.Budget)
	if err != nil {
		return err
	}
	status, reason := "ok", ""
	if j.ctx.Err() != nil {
		status, reason = "aborted", "canceled"
	}
	j.setSummary(&JobSummary{
		Status:      status,
		Reason:      reason,
		Converged:   res.Converged,
		ValidNaming: cc.ValidNaming(),
		Steps:       int64(res.Steps),
		NonNull:     int64(res.NonNull),
		OK:          j.ctx.Err() == nil,
	})
	converged := 0
	if res.Converged {
		converged = 1
	}
	s.met.addTrials(1, converged, int64(res.Steps), int64(res.NonNull))
	return nil
}

// batchTrialMaker returns the per-trial recipe for batches with the
// experiment harness's seed recipe: trialSeed = DeriveSeed(jobSeed,
// trial, attempt). An agent trial seeds its start and its injector
// with trialSeed and its scheduler with trialSeed+1; a count trial (one
// attempt) seeds its engine with trialSeed+1, the scheduler-seed role.
// The worker running a trial builds it in the trial state it reuses
// (see sim.RunBatch). The trial index is the global one, so the same
// maker serves full batches and shard ranges.
func batchTrialMaker(p *Prepared) func(trial, attempt int) sim.Trial {
	sp := p.spec
	return func(trial, attempt int) sim.Trial {
		seed := sim.DeriveSeed(sp.Seed, trial, attempt)
		if sp.Engine == "count" {
			return sim.CountTrial(sp.N, sp.Init, seed+1)
		}
		return sim.AgentTrial(sp.N, sp.Init, seed, sp.Sched, seed+1, p.plan)
	}
}

// runRange runs the batch trials [lo, hi) into sink: sim.RunBatch
// with the spec's worker count, supervision bounds and progress period
// and the service trial-seed recipe (batchTrialMaker), tracing under
// trace (the zero context disables it). It is the one batch recipe —
// whole batches, shard windows, the coordinator's local leases and
// in-process grid cells (Prepared.Run) all run through it, so a seeded
// batch emits the same records on every path.
func (p *Prepared) runRange(ctx context.Context, lo, hi int, sink obs.Sink, trace obs.SpanContext) sim.BatchSummary {
	sup := supervisionFor(p, sink)
	sup.Trace = trace
	bo := sim.BatchObs{Sink: sink, ProgressEvery: p.spec.ProgressEvery}
	return sim.RunBatch(ctx, p.proto, lo, hi, p.spec.Workers, sup, bo, batchTrialMaker(p))
}

// runBatch executes a batch on either engine through runRange: the
// whole batch, or the spec's shard window for the peer side of a
// distributed job (the same global seed recipe either way). A seeded
// batch job therefore replays the equivalent direct sim.RunBatch call
// record-for-record (the e2e test pins this byte-for-byte modulo
// wall-clock fields).
func (s *Server) runBatch(j *Job) error {
	sp := j.v.spec
	lo, hi := 0, sp.Trials
	if sp.Shard != nil {
		lo, hi = sp.Shard.Lo, sp.Shard.Hi
	}
	sum := j.v.runRange(j.ctx, lo, hi, j.buf, j.traceCtx())
	j.setSummary(&JobSummary{
		Trials:          sum.Trials,
		TrialsConverged: sum.Converged,
		Aborted:         sum.Aborted,
		Retried:         sum.Retried,
		Steps:           sum.TotalSteps,
		NonNull:         sum.TotalNonNull,
		OK:              sum.Converged == sum.Trials,
	})
	s.met.addTrials(sum.Trials, sum.Converged, sum.TotalSteps, sum.TotalNonNull)
	return nil
}

// runTable1 reproduces Table 1, streaming each completed cell as an
// experiment record and finishing with the full-table record;
// cancellation skips the remaining cells.
func (s *Server) runTable1(j *Job) error {
	sp := j.v.spec
	cells := experiments.Table1(experiments.Table1Options{
		P:           sp.P,
		ModelCheckP: sp.ModelCheckP,
		Budget:      sp.Budget,
		Seed:        sp.Seed,
		Workers:     sp.Workers,
		Interrupt:   func() bool { return j.ctx.Err() != nil },
		OnCell:      func(_ int, c experiments.Cell) { _ = j.buf.Emit(c.Record()) },
	})
	if err := j.buf.Emit(Table1Rec{V: obs.Version, Type: "table1", Cells: cells}); err != nil {
		return err
	}
	ok := len(cells) > 0
	for _, c := range cells {
		ok = ok && c.OK
	}
	j.setSummary(&JobSummary{Cells: len(cells), OK: ok})
	return nil
}
