// Command namesim runs one naming-protocol execution and reports the
// outcome: final configuration, interaction counts, and (optionally) a
// fairness audit of the schedule that was played.
//
// Usage:
//
//	namesim -protocol asym -p 8 -n 8 -sched roundrobin -init zero
//	namesim -protocol selfstab -p 6 -n 6 -sched random -init arbitrary -audit
//	namesim -protocol symglobal -p 5 -n 4 -sched matching -budget 100000
//	namesim -protocol asym -journal out.jsonl -metrics -progress-every 100000
//	namesim -protocol asym -engine interp -seed 7   # force interface dispatch
//	namesim -protocol selfstab -init arbitrary -faults '@conv:corrupt=3,@conv:corrupt=3'
//	namesim -protocol asym -faults '@5000:crash=1' -deadline 30s -retries 2
//	namesim -protocol asym -engine count -n 100000000 -budget 10000000
//
// -engine count selects the count-based (Gillespie) engine: the
// configuration is per-state counts, per-step cost is independent of N,
// and N may exceed P (naming is then unachievable by pigeonhole — the
// large-N scaling regime). The count engine knows no agent identities,
// so it is restricted to -sched random and -init zero|uniform, and the
// identity-dependent flags (-audit, -adversary, -faults, -deadline,
// -retries, -stall) are rejected at flag-parse time.
//
// Every agent-engine run goes through one sim.Supervise call. Fault
// injection (see docs/robustness.md): -faults takes a fault-plan string
// (events "@step:kind=arg" or "@conv:kind=arg"; kinds corrupt, leader,
// crash, churn, omit) executed mid-run by the runner; -deadline,
// -retries and -stall bound the run's wall clock, stall retries and
// stall detection. Any of these flags switches on supervision, which
// reports the trial status (ok | retried | aborted) alongside the
// result. -adversary makes the greedy anti-naming adversary the
// runner's scheduler (adversary.Scheduler, enforced weak fairness).
//
// Protocols: asym, symglobal, initleader, selfstab, globalp, counting,
// naive (see -list).
//
// Observability (see docs/observability.md): -journal writes a JSONL
// run journal (header, periodic progress snapshots, final summary with
// per-rule fire counts, plus under -adversary the fairness-forced count
// the scheduler reports), -metrics prints the metrics tables after the
// run, -pprof captures CPU and heap profiles, and -seed 0 auto-derives
// a seed from the clock — the seed actually used is always printed and
// journaled so any run can be replayed exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"popnaming/internal/adversary"
	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fairness"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

// options collects the parsed command line.
type options struct {
	proto    string
	p, n     int
	sched    string
	init     string
	engine   string
	seed     int64
	derived  bool
	budget   int
	audit    bool
	adv      bool
	hidden   int
	hide     int
	faults   string
	plan     *fault.Plan
	deadline time.Duration
	retries  int
	stall    int
	journal  string
	metrics  bool
	progress int
	pprof    string
}

// supervised reports whether any fault/supervision flag switches on
// supervision (deadline, stall retries, fault plan) for the agent run.
func (o *options) supervised() bool {
	return o.faults != "" || o.deadline > 0 || o.retries > 0 || o.stall > 0
}

func main() {
	var (
		protoKey = flag.String("protocol", "asym", "protocol to run (see -list)")
		p        = flag.Int("p", 8, "population bound P")
		n        = flag.Int("n", 0, "population size N (default P)")
		schedKey = flag.String("sched", "random", "scheduler: random | roundrobin | matching | eclipse")
		initKey  = flag.String("init", "zero", "initialization: zero | uniform | arbitrary")
		engine   = flag.String("engine", "compiled", "execution engine: compiled | interp | count")
		seed     = flag.Int64("seed", 1, "random seed (0: auto-derive from the clock; the seed used is printed)")
		budget   = flag.Int("budget", 50_000_000, "max interactions")
		audit    = flag.Bool("audit", false, "audit the played schedule for weak fairness")
		adv      = flag.Bool("adversary", false, "use the greedy anti-naming adversary (enforced weak fairness) instead of -sched")
		hidden   = flag.Int("hidden", 0, "eclipse scheduler: agent to hide")
		hide     = flag.Int("hide", 100000, "eclipse scheduler: steps to hide for")
		faults   = flag.String("faults", "", "fault plan, e.g. '@5000:corrupt=3,@conv:crash=1' (see docs/robustness.md)")
		deadline = flag.Duration("deadline", 0, "wall-clock deadline for the supervised run (0: none)")
		retries  = flag.Int("retries", 0, "stall retries with derived seeds before aborting")
		stall    = flag.Int("stall", 0, "quiet-streak length declaring a stall (0: default when supervised)")
		list     = flag.Bool("list", false, "list protocols and exit")
		journal  = flag.String("journal", "", "write a JSONL run journal to this file (see docs/observability.md)")
		metrics  = flag.Bool("metrics", false, "print the run-metrics and rule-firing tables after the run")
		progress = flag.Int("progress-every", 1_000_000, "journal a progress snapshot every k interactions (0: final snapshot only)")
		pprofPfx = flag.String("pprof", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()

	if *list {
		for _, k := range experiments.RegistryKeys() {
			spec, _ := experiments.Lookup(k)
			fmt.Printf("%-12s %-7s %s\n", spec.Key, spec.Fairness, spec.Description)
		}
		return
	}
	o := options{
		proto: *protoKey, p: *p, n: *n, sched: *schedKey, init: *initKey, engine: *engine,
		budget: *budget, audit: *audit, adv: *adv, hidden: *hidden, hide: *hide,
		faults: *faults, deadline: *deadline, retries: *retries, stall: *stall,
		journal: *journal, metrics: *metrics, progress: *progress, pprof: *pprofPfx,
	}
	o.seed, o.derived = obs.ResolveSeed(*seed)
	if err := checkFlags(o); err != nil {
		fmt.Fprintln(os.Stderr, "namesim:", err)
		os.Exit(2)
	}
	// Reject a malformed -faults plan at flag-parse time, before any
	// protocol or journal setup, with the parser's structured location.
	var perr error
	if o.plan, perr = fault.Parse(o.faults); perr != nil {
		fmt.Fprintln(os.Stderr, "namesim: -faults:", perr)
		os.Exit(2)
	}
	// The count engine has no agent identities: reject identity-dependent
	// flag combinations here, before any protocol or journal setup, with
	// the incompatible feature named.
	if o.engine == "count" {
		if msg := countIncompatibility(o); msg != "" {
			fmt.Fprintf(os.Stderr, "namesim: -engine count: incompatible flag %s\n", msg)
			os.Exit(2)
		}
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "namesim:", err)
		os.Exit(1)
	}
}

// checkFlags rejects, at flag-parse time, the values the protocol
// constructors and schedulers cannot take. Every protocol needs
// P >= 2. The agent engine needs one slot per agent, so N lies in
// [1, P] (-n 0 means N = P); count dynamics are defined for any N
// (naming is then unachievable when N > P, the large-N scaling
// regime). The eclipse scheduler hides agent -hidden of the N while
// the others keep interacting.
func checkFlags(o options) error {
	n := o.n
	if n == 0 {
		n = o.p
	}
	if o.p < 2 {
		return fmt.Errorf("-p %d: the population bound must be at least 2", o.p)
	}
	if o.engine != "count" && (n < 1 || n > o.p) {
		return fmt.Errorf("-n %d: the agent engine needs N in [1, P=%d]", o.n, o.p)
	}
	if o.engine == "count" || o.adv || o.sched != "eclipse" {
		return nil
	}
	if o.hidden < 0 || o.hidden >= n {
		return fmt.Errorf("-hidden %d: the eclipsed agent must lie in [0, N=%d)", o.hidden, n)
	}
	minN := 3 // the N-1 visible agents need a pair
	if spec, err := experiments.Lookup(o.proto); err == nil && core.HasLeader(spec.New(o.p)) {
		minN = 2 // the leader pairs with the visible agent
	}
	if n < minN {
		return fmt.Errorf("-sched eclipse: N=%d leaves the visible agents no pair (want N >= %d)", n, minN)
	}
	return nil
}

// countIncompatibility returns a description of the first flag that the
// count engine cannot honor, or "" when the selection is count-runnable.
// The count engine sees per-state counts only; anything that addresses
// an individual agent has no meaning there. Beyond namesim's own
// -adversary and -audit, the engine declares its limits itself
// (sim.CountUnsupported).
func countIncompatibility(o options) string {
	switch {
	case o.adv:
		return "-adversary (the greedy adversary picks individual agents)"
	case o.audit:
		return "-audit (a fairness audit needs the agent-level schedule)"
	}
	sup := sim.Supervision{Deadline: o.deadline, Retries: o.retries, StallQuiet: o.stall}
	feature, reason := sim.CountUnsupported(o.faults != "", sup, o.sched, o.init)
	switch feature {
	case "":
		return ""
	case "supervision":
		feature = "deadline/-retries/-stall"
	}
	return "-" + strings.Replace(feature, ":", " ", 1) + " (" + reason + ")"
}

func run(o options) (err error) {
	spec, err := experiments.Lookup(o.proto)
	if err != nil {
		return err
	}
	if o.n == 0 {
		o.n = o.p
	}
	proto := spec.New(o.p)

	var cfg *core.Config
	if o.engine != "count" {
		if cfg, err = sim.AgentStart(proto, o.n, o.init, o.seed); err != nil {
			return err
		}
	}

	sink, finish, err := obs.OpenRun("namesim", o.journal, o.pprof)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	if o.engine == "count" {
		return runCount(proto, o, sink)
	}
	if o.adv && o.supervised() {
		return fmt.Errorf("-faults/-deadline/-retries/-stall cannot be combined with -adversary")
	}
	return runAgent(proto, cfg, o, sink)
}

// runAgent drives every agent-engine run through one sim.Supervise
// call. A plain run is one attempt of one slice, step for step
// Runner.Run(budget). The supervision flags add the deadline, stall
// retries with derived seeds, and the fault plan, whose events fire
// mid-run on the live runner.
func runAgent(proto core.Protocol, cfg *core.Config, o options, sink *obs.JournalSink) error {
	if o.engine != "compiled" && o.engine != "interp" {
		return fmt.Errorf("unknown engine %q (compiled | interp)", o.engine)
	}
	// The plan was parsed at flag-parse time; check its capabilities
	// here, so the per-attempt builder below cannot fail.
	if !o.plan.Empty() {
		if _, err := fault.NewInjector(o.plan, proto, o.seed); err != nil {
			return err
		}
	}
	s, err := buildScheduler(proto, cfg, o, o.seed)
	if err != nil {
		return err
	}

	fmt.Printf("protocol %s (P=%d, %d states/agent, symmetric=%v, leader=%v)\n",
		proto.Name(), proto.P(), proto.States(), proto.Symmetric(), core.HasLeader(proto))
	fmt.Printf("population N=%d, scheduler %s, init %s, seed %d%s\n",
		o.n, s.Name(), o.init, o.seed, seedNote(o.derived))
	fmt.Printf("start: %s\n", cfg)
	sup := sim.Supervision{StepBudget: o.budget, Slice: o.budget}
	if o.supervised() {
		fmt.Printf("supervised: plan %q, deadline %v, retries %d\n", o.plan.String(), o.deadline, o.retries)
		sup = sim.Supervision{
			StepBudget: o.budget,
			Deadline:   o.deadline,
			StallQuiet: o.stall,
			Retries:    o.retries,
			Sink:       sink,
		}
		if sup.StallQuiet == 0 {
			// Retries and deadlines only help if stalls are detected:
			// default to a large multiple of the silence-check window.
			sup.StallQuiet = 2048 * sim.QuietWindow(o.n)
		}
	}
	if err := sink.Emit(header(proto, o, "", s.Name())); err != nil {
		return err
	}

	var (
		runner *sim.Runner
		col    trace.Collector
	)
	sr := sim.Supervise(context.Background(), sup, func(attempt int) *sim.Runner {
		seed := o.seed
		if attempt > 0 {
			seed = sim.DeriveSeed(o.seed, 0, attempt)
			fmt.Printf("retry %d: derived seed %d\n", attempt, seed)
			cfg, _ = sim.AgentStart(proto, o.n, o.init, seed)
			s, _ = buildScheduler(proto, cfg, o, seed)
		}
		runner = sim.NewRunner(proto, s, cfg)
		runner.Interpret = o.engine == "interp"
		if !o.plan.Empty() {
			runner.Inject, _ = fault.NewInjector(o.plan, proto, seed)
			runner.Inject.Sink = sink
		}
		if sink != nil || o.metrics {
			runner.Obs = obs.NewObserver(o.n, core.HasLeader(proto), obs.ObserverOptions{
				Sink:          sink,
				ProgressEvery: o.progress,
			})
		}
		if o.audit {
			col = trace.Collector{}
			runner.OnStep = col.Record
		}
		if attempt == 0 {
			engine := "interpreted"
			if runner.Compiled() {
				engine = "compiled"
			}
			fmt.Printf("engine: %s\n", engine)
		}
		return runner
	})

	if o.supervised() {
		fmt.Printf("status: %s (attempts %d", sr.Status, sr.Attempts)
		if sr.Reason != "" {
			fmt.Printf(", reason %s", sr.Reason)
		}
		fmt.Printf(", wall %v)\n", time.Duration(sr.WallNS).Round(time.Millisecond))
	}
	if inj := runner.Inject; inj != nil {
		for _, f := range inj.Fired() {
			fmt.Printf("fault: %s fired at step %d\n", f.Event, f.Step)
		}
		if got, want := len(inj.Fired()), len(o.plan.Events); got < want {
			fmt.Printf("faults pending: %d of %d events never fired\n", want-got, want)
		}
	}
	fmt.Printf("result: %s\n", sr.Result)
	if adv, ok := s.(*adversary.Scheduler); ok {
		fmt.Printf("fairness-forced: %d interactions\n", adv.Forced())
	}
	fmt.Printf("valid naming: %v\n", cfg.ValidNaming())
	if sr.Converged {
		fmt.Printf("parallel time: %.1f\n", sr.ParallelTime(o.n))
	}
	if o.audit {
		a := fairness.AuditPairs(col.Pairs(), o.n, core.HasLeader(proto))
		fmt.Printf("%s\n", a)
	}
	if o.metrics {
		fmt.Println()
		runner.Obs.Dump(os.Stdout)
	}
	return nil
}

// runCount drives the count-based engine: the configuration is
// per-state counts (core.CountConfig), the pair law is the uniform
// random scheduler's, and the per-step cost is independent of N.
// Journals from this path carry engine:"count", census records instead
// of pair statistics, and the same per-rule fire counts as agent runs.
func runCount(proto core.Protocol, o options, sink *obs.JournalSink) error {
	cc, err := sim.CountStart(proto, o.n, o.init)
	if err != nil {
		return err
	}
	fmt.Printf("protocol %s (P=%d, %d states/agent, symmetric=%v, leader=%v)\n",
		proto.Name(), proto.P(), proto.States(), proto.Symmetric(), core.HasLeader(proto))
	fmt.Printf("population N=%d, engine count, init %s, seed %d%s\n",
		o.n, o.init, o.seed, seedNote(o.derived))
	fmt.Printf("start: %s\n", cc)
	if err := sink.Emit(header(proto, o, "count", "random")); err != nil {
		return err
	}
	runner, err := sim.NewCountRunner(proto, cc, o.seed)
	if err != nil {
		return err
	}
	var observer *obs.Observer
	if sink != nil || o.metrics {
		observer = obs.NewObserver(o.n, core.HasLeader(proto), obs.ObserverOptions{
			Sink:          sink,
			ProgressEvery: o.progress,
			NoPairs:       true,
		})
		runner.Obs = observer
	}
	res, err := runner.Run(o.budget)
	if err != nil {
		return err
	}
	fmt.Printf("result: %s\n", res)
	fmt.Printf("valid naming: %v\n", cc.ValidNaming())
	if res.Converged {
		fmt.Printf("parallel time: %.1f\n", res.ParallelTime(o.n))
	}
	if o.metrics {
		fmt.Println()
		observer.Dump(os.Stdout)
	}
	return nil
}

// header is the journal's first record. A nil sink drops it, so
// callers emit it unconditionally.
func header(proto core.Protocol, o options, engine, scheduler string) obs.Header {
	hdr := obs.NewHeader("namesim")
	hdr.Engine = engine
	hdr.Scheduler = scheduler
	hdr.Protocol = proto.Name()
	hdr.P = proto.P()
	hdr.States = proto.States()
	hdr.Leader = core.HasLeader(proto)
	hdr.N = o.n
	hdr.Init = o.init
	hdr.Budget = o.budget
	hdr.Seed = o.seed
	hdr.SeedDerived = o.derived
	return hdr
}

func seedNote(derived bool) string {
	if derived {
		return " (auto-derived)"
	}
	return ""
}

// buildScheduler adds namesim's own schedulers to the shared keys of
// sim.AgentScheduler: the greedy anti-naming adversary over the live
// configuration cfg (-adversary), and the eclipse attack, whose knobs
// only the CLI carries.
func buildScheduler(proto core.Protocol, cfg *core.Config, o options, seed int64) (sched.Scheduler, error) {
	switch {
	case o.adv:
		return adversary.NewScheduler(proto, cfg, adversary.NewGreedyNaming(proto)), nil
	case o.sched == "eclipse":
		return sched.NewEclipse(o.n, core.HasLeader(proto), o.hidden, o.hide, seed), nil
	}
	return sim.AgentScheduler(proto, o.n, o.sched, seed)
}
