package serve

import (
	"fmt"
	"math/rand"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// checkInit reports whether buildConfig accepts initKey for proto. It
// builds nothing, so admission checks the key without drawing an
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

// buildConfig mirrors the CLI initialization keys. The keys were
// validated at admission (checkInit), so workers call this infallibly
// per attempt.
func buildConfig(proto core.Protocol, n int, initKey string, seed int64) (*core.Config, error) {
	if err := checkInit(proto, initKey); err != nil {
		return nil, err
	}
	switch initKey {
	case "uniform":
		return sim.UniformConfig(proto, n), nil
	case "arbitrary":
		return sim.ArbitraryConfig(proto.(core.ArbitraryInitProtocol), n, rand.New(rand.NewSource(seed))), nil
	}
	cfg := core.NewConfig(n, 0) // "zero"
	if lp, ok := proto.(core.LeaderProtocol); ok {
		cfg.Leader = lp.InitLeader()
	}
	return cfg, nil
}

// buildCountStart mirrors buildConfig in count space: the subset of
// initialization keys whose starting configurations are exchangeable —
// fully described by per-state counts. "arbitrary" draws an agent
// array and is rejected at admission before this is reached.
func buildCountStart(proto core.Protocol, n int, initKey string) (*core.CountConfig, error) {
	switch initKey {
	case "zero":
		cc := core.NewCountConfig(proto.States())
		cc.Counts[0] = n
		if lp, ok := proto.(core.LeaderProtocol); ok {
			cc.Leader = lp.InitLeader()
		}
		return cc, nil
	case "uniform":
		return sim.UniformCountConfig(proto, n), nil
	default:
		return nil, fmt.Errorf("init %q is not count-representable (zero | uniform)", initKey)
	}
}

// buildScheduler mirrors the CLI scheduler keys minus eclipse (an
// attack-study scheduler with extra knobs the job schema doesn't
// carry). The per-trial scheduler seed is trialSeed+1, matching the
// stabilization experiments, so a seeded service job replays the
// equivalent direct run exactly.
func buildScheduler(proto core.Protocol, n int, schedKey string, seed int64) (sched.Scheduler, error) {
	withLeader := core.HasLeader(proto)
	switch schedKey {
	case "random":
		return sched.NewRandom(n, withLeader, seed), nil
	case "roundrobin":
		return sched.NewRoundRobin(n, withLeader), nil
	case "matching":
		if withLeader {
			return nil, fmt.Errorf("matching scheduler is leaderless only")
		}
		return sched.NewMatching(n), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (random | roundrobin | matching)", schedKey)
	}
}

// headerFor builds a validated spec's stream header under the given
// tool name. It is the first record of every result stream; its seed
// is the resolved one, so the stream is self-describing for replay.
func headerFor(v *validated, tool string) obs.Header {
	sp := v.spec
	hdr := obs.NewHeader(tool)
	hdr.N = sp.N
	hdr.Scheduler = sp.Sched
	hdr.Init = sp.Init
	hdr.Budget = sp.Budget
	hdr.Trials = sp.Trials
	hdr.Workers = sp.Workers
	hdr.Seed = sp.Seed
	hdr.SeedDerived = v.seedDerived
	if v.proto != nil {
		hdr.Protocol = v.proto.Name()
		hdr.P = v.proto.P()
		hdr.States = v.proto.States()
		hdr.Leader = core.HasLeader(v.proto)
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
	hdr := headerFor(j.v, "ppserved")
	if j.traceID != 0 {
		hdr.Trace = j.traceID.String()
	}
	return hdr
}

// supervisionFor translates a validated spec's bounds into a
// sim.Supervision wired to sink (tracing disabled).
func supervisionFor(v *validated, sink obs.Sink) sim.Supervision {
	sp := v.spec
	return sim.Supervision{
		StepBudget: sp.Budget,
		Deadline:   time.Duration(sp.DeadlineMS) * time.Millisecond,
		StallQuiet: sp.Stall,
		Retries:    sp.Retries,
		Sink:       sink,
	}
}

// supervision is supervisionFor against the job's result buffer,
// carrying the job's trace context (disabled for untraced jobs) so
// attempt/slice spans parent under the job's root span.
func (j *Job) supervision() sim.Supervision {
	sup := supervisionFor(j.v, j.buf)
	sup.Trace = j.traceCtx()
	return sup
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
	count := j.v.spec.Engine == "count"
	switch j.v.spec.Kind {
	case KindSim:
		if count {
			return s.runCountSim(j)
		}
		return s.runSim(j)
	case KindBatch:
		if s.distEligible(j) {
			return s.runDistBatch(j)
		}
		if count {
			return s.runCountBatch(j)
		}
		return s.runBatch(j)
	case KindCampaign:
		return s.runCampaign(j)
	case KindTable1:
		return s.runTable1(j)
	default:
		return fmt.Errorf("unreachable job kind %q", j.v.spec.Kind)
	}
}

// runSim executes one supervised trial, exactly namesim's supervised
// path: per-attempt seeds sim.DeriveSeed(seed, 0, attempt), scheduler
// seed attemptSeed+1, fresh injector per attempt.
func (s *Server) runSim(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	var finalCfg *core.Config
	sr := sim.Supervise(j.ctx, j.supervision(), func(attempt int) *sim.Runner {
		seed := sp.Seed
		if attempt > 0 {
			seed = sim.DeriveSeed(sp.Seed, 0, attempt)
		}
		cfg, _ := buildConfig(pr, sp.N, sp.Init, seed)
		finalCfg = cfg
		sc, _ := buildScheduler(pr, sp.N, sp.Sched, seed+1)
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
	s.met.trialSteps.Add(uint64(sr.Steps))
	s.met.trialNonNull.Add(uint64(sr.NonNull))
	s.met.trialsRun.Inc()
	if sr.Converged {
		s.met.trialsConverged.Inc()
	}
	return nil
}

// runCountSim executes one count-engine trial. The engine seed is
// sp.Seed+1 — the scheduler-seed role (see CountRunner.Seed), matching
// runSim's attempt-0 scheduler wiring, so a count sim job and the
// equivalent namesim -engine count run share the seed recipe shape.
func (s *Server) runCountSim(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	cc, err := buildCountStart(pr, sp.N, sp.Init)
	if err != nil {
		return err
	}
	runner, err := sim.NewCountRunner(pr, cc, sp.Seed+1)
	if err != nil {
		return err
	}
	runner.Sampler = sp.Sampler
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
		status, reason = "aborted", "interrupt"
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
	s.met.trialSteps.Add(uint64(res.Steps))
	s.met.trialNonNull.Add(uint64(res.NonNull))
	s.met.trialsRun.Inc()
	if res.Converged {
		s.met.trialsConverged.Inc()
	}
	return nil
}

// countTrialMaker builds the per-trial constructor for count-engine
// batches: trialSeed = DeriveSeed(jobSeed, trial, 0), engine seed
// trialSeed+1 (the scheduler-seed role). The trial index is the global
// one, so the same maker serves full batches and shard ranges.
func countTrialMaker(v *validated) func(trial int) sim.CountTrial {
	sp := v.spec
	pr := v.proto
	return func(trial int) sim.CountTrial {
		seed := sim.DeriveSeed(sp.Seed, trial, 0)
		cc, _ := buildCountStart(pr, sp.N, sp.Init)
		return sim.CountTrial{Cfg: cc, Seed: seed + 1, Sampler: sp.Sampler}
	}
}

// batchTrialMaker builds the per-trial constructor for agent-engine
// batches with the experiment harness's seed recipe: trialSeed =
// DeriveSeed(jobSeed, trial, attempt), scheduler seed trialSeed+1,
// injector seeded with trialSeed. Global trial indexes, like
// countTrialMaker.
func batchTrialMaker(v *validated) func(trial, attempt int) sim.Trial {
	sp := v.spec
	pr := v.proto
	return func(trial, attempt int) sim.Trial {
		seed := sim.DeriveSeed(sp.Seed, trial, attempt)
		cfg, _ := buildConfig(pr, sp.N, sp.Init, seed)
		sc, _ := buildScheduler(pr, sp.N, sp.Sched, seed+1)
		t := sim.Trial{Cfg: cfg, Sched: sc}
		if !v.plan.Empty() {
			inj, _ := fault.NewInjector(v.plan, pr, seed)
			t.Inject = inj
		}
		return t
	}
}

// shardRange resolves the job's executed trial range: the whole batch,
// or the spec's shard window for the peer side of a distributed job.
func (j *Job) shardRange() (lo, hi int) {
	sp := j.v.spec
	if sp.Shard != nil {
		return sp.Shard.Lo, sp.Shard.Hi
	}
	return 0, sp.Trials
}

// runCountBatch executes independent count-engine trials with the
// batch seed recipe (see countTrialMaker), so a seeded count batch
// replays the equivalent direct sim.RunCountBatch call. A shard job
// runs just its range; trial seeds derive from global indexes either
// way, so the shard's records match the same trials of a full run.
func (s *Server) runCountBatch(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	lo, hi := j.shardRange()
	bo := sim.BatchObs{Sink: j.buf, ProgressEvery: sp.ProgressEvery}
	sum := sim.RunCountBatchRange(j.ctx, pr, lo, hi, sp.Budget, sp.Workers, bo, countTrialMaker(j.v))
	j.setSummary(&JobSummary{
		Trials:          sum.Trials,
		TrialsConverged: sum.Converged,
		Aborted:         sum.Aborted,
		Steps:           sum.TotalSteps,
		NonNull:         sum.TotalNonNull,
		OK:              sum.Converged == sum.Trials,
	})
	s.met.trialSteps.Add(uint64(sum.TotalSteps))
	s.met.trialNonNull.Add(uint64(sum.TotalNonNull))
	s.met.trialsRun.Add(uint64(sum.Trials))
	s.met.trialsConverged.Add(uint64(sum.Converged))
	return nil
}

// runBatch executes a supervised batch with the experiment harness's
// trial-seed recipe (see batchTrialMaker). A seeded batch job
// therefore replays the equivalent direct sim.RunBatchSupervised call
// record-for-record (the e2e test pins this byte-for-byte modulo
// wall-clock fields). A shard job runs just its range on the same
// global seed recipe.
func (s *Server) runBatch(j *Job) error {
	sp := j.v.spec
	pr := j.v.proto
	lo, hi := j.shardRange()
	bo := sim.BatchObs{Sink: j.buf, ProgressEvery: sp.ProgressEvery}
	sum := sim.RunBatchRangeSupervised(j.ctx, pr, lo, hi, sp.Workers, j.supervision(), bo, batchTrialMaker(j.v))
	j.setSummary(&JobSummary{
		Trials:          sum.Trials,
		TrialsConverged: sum.Converged,
		Aborted:         sum.Aborted,
		Retried:         sum.Retried,
		Steps:           sum.TotalSteps,
		NonNull:         sum.TotalNonNull,
		OK:              sum.Converged == sum.Trials,
	})
	s.met.trialSteps.Add(uint64(sum.TotalSteps))
	s.met.trialNonNull.Add(uint64(sum.TotalNonNull))
	s.met.trialsRun.Add(uint64(sum.Trials))
	s.met.trialsConverged.Add(uint64(sum.Converged))
	return nil
}

// runCampaign executes a fault-injection campaign via
// experiments.Stabilize; cancellation is bridged into the campaign's
// cooperative Interrupt hook.
func (s *Server) runCampaign(j *Job) error {
	sp := j.v.spec
	ap := j.v.proto.(core.ArbitraryInitProtocol) // checked at admission
	res := experiments.Stabilize(sp.Protocol, ap, experiments.StabilizeOptions{
		N:          sp.N,
		Epochs:     sp.Epochs,
		CorruptK:   sp.CorruptK,
		Plan:       j.v.plan,
		Trials:     sp.Trials,
		Budget:     sp.Budget,
		Deadline:   time.Duration(sp.DeadlineMS) * time.Millisecond,
		Retries:    sp.Retries,
		StallQuiet: sp.Stall,
		Workers:    sp.Workers,
		Seed:       sp.Seed,
		Sink:       j.buf,
		Trace:      j.traceCtx(),
		Interrupt:  func() bool { return j.ctx.Err() != nil },
	})
	if err := j.buf.Emit(CampaignRec{V: obs.Version, Type: "campaign", Result: res}); err != nil {
		return err
	}
	j.setSummary(&JobSummary{
		Trials:  res.Trials,
		Aborted: res.Aborted,
		Retried: res.Retried,
		OK:      res.OK,
	})
	s.met.trialsRun.Add(uint64(res.Trials))
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
		OnCell: func(i int, c experiments.Cell) {
			rec := obs.NewExperimentRec(fmt.Sprintf("table1/%s/%s", c.Leader, c.Rules), "E1", c.OK, c.WallNS)
			rec.Detail = c.Evidence
			_ = j.buf.Emit(rec)
		},
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
