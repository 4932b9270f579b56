package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// The count-based (Gillespie) engine. Under the uniform random
// scheduler a configuration is fully described by its per-state counts:
// the probability that the next interaction is an ordered state pair
// (p, q) is c[p]·c[q] / N(N−1) off the diagonal and c[p]·(c[p]−1) /
// N(N−1) on it (two distinct agents of one state), and with a leader
// the leader interacts with probability 2/(N+1), its peer uniform over
// the N mobile agents. CountRunner samples state pairs from exactly
// these weights, applies the compiled transition directly to the
// counts, and never materializes an agent array — per-step cost depends
// on |Q|, not N, which is what unlocks populations of 10⁶–10⁹ agents.
//
// The |Q|² pair distribution is never tabulated: it factors exactly
// into two |Q|-ary draws. The initiator p is a state drawn ∝ c[p]; the
// responder is a state drawn ∝ c[q] and, when it collides with p,
// accepted with probability (c[p]−1)/c[p] (the chance a uniformly
// random agent of state p is not the initiator itself) or redrawn —
// which is exactly "a uniformly random agent among the other N−1". The
// rejection probability is 1/N per step, so the factorization is both
// exact and cheaper than maintaining |Q|² weights. A Fenwick tree over
// the counts implements the c-proportional draw (fenwickSampler).

// countRNG supplies unbiased bounded uniforms from a Source64. The
// agent scheduler tolerates multiply-shift bias (a fairness statistic
// cannot resolve span/2³²), but the count engine's collision and
// staleness rejections compare against exact integer thresholds, so it
// uses Lemire's debiased method: one multiply per draw, a second only
// in the rare sliver where the low word forces the bias check.
type countRNG struct {
	src rand.Source64
}

func newCountRNG(seed int64) countRNG {
	return countRNG{src: rand.NewSource(seed).(rand.Source64)}
}

// uint64n returns an unbiased uniform draw from [0, n). n must be > 0.
func (r *countRNG) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// fenwickSampler draws a state with probability proportional to its
// current count. It keeps the counts in a Fenwick (binary indexed)
// tree: drawing descends the implicit prefix sums in O(log |Q|), syncing
// a state updates O(log |Q|) nodes. After the census mutates the shared
// counts slice the runner calls sync for each touched state; sync is
// idempotent.
type fenwickSampler struct {
	counts  []int   // live, shared with the census
	shadow  []int   // last value synced into the tree, per state
	tree    []int64 // 1-indexed Fenwick array
	total   uint64  // population N (constant: transitions conserve it)
	highbit int     // largest power of two ≤ len(counts)
	q       int
}

func newFenwickSampler(counts []int, n int) *fenwickSampler {
	q := len(counts)
	hb := 1
	for hb*2 <= q {
		hb *= 2
	}
	f := &fenwickSampler{
		counts:  counts,
		shadow:  make([]int, q),
		tree:    make([]int64, q+1),
		total:   uint64(n),
		highbit: hb,
		q:       q,
	}
	copy(f.shadow, counts)
	// Linear-time Fenwick construction from the initial counts.
	for i := 0; i < q; i++ {
		f.tree[i+1] += int64(counts[i])
		if j := i + 1 + ((i + 1) & -(i + 1)); j <= q {
			f.tree[j] += f.tree[i+1]
		}
	}
	return f
}

func (f *fenwickSampler) draw(r *countRNG) core.State {
	u := int64(r.uint64n(f.total))
	// Prefix-sum descent: find the first state whose cumulative count
	// exceeds u.
	pos := 0
	for k := f.highbit; k > 0; k >>= 1 {
		if next := pos + k; next <= f.q && f.tree[next] <= u {
			u -= f.tree[next]
			pos = next
		}
	}
	return core.State(pos)
}

func (f *fenwickSampler) sync(s core.State) {
	i := int(s)
	delta := int64(f.counts[i] - f.shadow[i])
	if delta == 0 {
		return
	}
	f.shadow[i] = f.counts[i]
	for j := i + 1; j <= f.q; j += j & -j {
		f.tree[j] += delta
	}
}

// CountResult summarizes one count-engine execution, mirroring Result.
type CountResult struct {
	Converged bool
	Steps     int
	NonNull   int
	// Final is the last configuration (aliased, not copied).
	Final *core.CountConfig
}

// ParallelTime returns interactions divided by population size.
func (r CountResult) ParallelTime(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(r.Steps) / float64(n)
}

func (r CountResult) String() string {
	status := "did not converge"
	if r.Converged {
		status = "converged"
	}
	return fmt.Sprintf("%s after %d interactions (%d non-null): %s", status, r.Steps, r.NonNull, r.Final)
}

// CountRunner executes one protocol instance over a count-space
// configuration. It requires a compilable protocol (the transition
// table is the whole engine) and an in-bounds population (see
// core.TotalPairWeight); NewCountRunner checks both.
//
// The runner is deliberately leaner than Runner: it has no scheduler
// (the pair law is fixed to uniform random — the one scheduler whose
// executions are count-measurable), no fault injector (fault kinds
// target agent identities), and no interpreted path. Convergence
// semantics match Runner exactly: silence is tested initially and after
// every full QuietThreshold window of consecutive null interactions, so
// converged Steps include the same quiet tail and the two engines'
// convergence-step distributions agree (the differential tests hold
// them to a Kolmogorov–Smirnov test).
type CountRunner struct {
	Proto core.Protocol
	// Cfg is mutated in place as transitions are applied.
	Cfg *core.CountConfig
	// Seed seeds the engine's single RNG. It plays the role of the
	// agent engine's scheduler seed; drivers that derive per-trial
	// seeds pass trialSeed+1 here to mirror the agent wiring.
	Seed int64

	// QuietThreshold overrides the silence-test window (0: the Runner
	// default, QuietWindow(N)).
	QuietThreshold int

	// Obs, when non-nil, receives per-rule accounting via the
	// identity-free observe methods, periodic progress + census
	// records, and the final summary. The runner wires CompileRules
	// and TrackCensus itself.
	Obs *obs.Observer

	// Interrupt, when non-nil, is polled every few thousand steps; a
	// true return stops the run at that boundary (Converged reports
	// the actual silence state).
	Interrupt func() bool

	tab    *core.Compiled
	census *core.Census
	smp    *fenwickSampler
	rng    countRNG
	lp     core.LeaderProtocol
	n      int

	steps   int
	nonNull int
	quiet   int
	ready   bool
}

// NewCountRunner validates the (protocol, configuration) pair and
// returns a count-engine runner. Unlike the agent engine the population
// may exceed the naming bound P — count dynamics are well-defined for
// any N (naming itself is then unachievable by pigeonhole), and the
// large-N scaling benchmarks depend on exactly that.
func NewCountRunner(p core.Protocol, cfg *core.CountConfig, seed int64) (*CountRunner, error) {
	return newCountRunner(p, nil, cfg, seed)
}

// newCountRunner is NewCountRunner over tab, p's compiled table, when it
// is non-nil: batches compile once and share the table across trials.
func newCountRunner(p core.Protocol, tab *core.Compiled, cfg *core.CountConfig, seed int64) (*CountRunner, error) {
	if core.HasLeader(p) != (cfg.Leader != nil) {
		return nil, fmt.Errorf("sim: protocol %q and count configuration disagree about leader presence", p.Name())
	}
	if tab == nil {
		if q := p.States(); q > maxCompiledStates {
			return nil, fmt.Errorf("sim: count engine requires a compiled table: %q has %d states (max %d)", p.Name(), q, maxCompiledStates)
		}
		var err error
		if tab, err = core.Compile(p); err != nil {
			return nil, fmt.Errorf("sim: count engine requires a compiled table: %w", err)
		}
	}
	if len(cfg.Counts) != p.States() {
		return nil, fmt.Errorf("sim: count configuration has %d states, protocol %q declares %d", len(cfg.Counts), p.Name(), p.States())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N()
	if n < 2 && cfg.Leader == nil {
		return nil, fmt.Errorf("sim: population too small for interactions (n=%d, no leader)", n)
	}
	if n < 1 {
		return nil, fmt.Errorf("sim: population too small for interactions (n=%d)", n)
	}
	lp, _ := p.(core.LeaderProtocol)
	return &CountRunner{Proto: p, Cfg: cfg, Seed: seed, tab: tab, lp: lp, n: n}, nil
}

// Steps returns the number of interactions executed so far.
func (r *CountRunner) Steps() int { return r.steps }

// NonNull returns the number of state-changing interactions so far.
func (r *CountRunner) NonNull() int { return r.nonNull }

// ensure builds the census, sampler and RNG on first use, honoring an
// Obs field assigned after construction.
func (r *CountRunner) ensure() error {
	if r.ready {
		return nil
	}
	census, err := core.NewCensusCounts(r.tab, r.Cfg.Counts)
	if err != nil {
		return err
	}
	r.census, r.smp = census, newFenwickSampler(r.Cfg.Counts, r.n)
	r.rng = newCountRNG(r.Seed)
	if r.Obs != nil {
		r.Obs.CompileRules(r.tab)
		r.Obs.TrackCensus(r.Cfg.Counts)
	}
	r.ready = true
	return nil
}

func (r *CountRunner) silent() bool { return r.census.Silent(r.Cfg.Leader) }

func (r *CountRunner) quietThreshold() int {
	if r.QuietThreshold > 0 {
		return r.QuietThreshold
	}
	return QuietWindow(r.n)
}

// step executes one interaction and reports whether it was non-null.
func (r *CountRunner) step() bool {
	// With a leader, a uniformly random ordered pair of the N+1
	// entities involves the leader with probability 2N/((N+1)N) =
	// 2/(N+1); the mobile peer is uniform over the N agents, i.e. its
	// state is drawn ∝ c. Initiator/responder roles collapse, exactly
	// as the agent engine's ApplyLeader does.
	if r.lp != nil && r.rng.uint64n(uint64(r.n)+1) < 2 {
		x := r.smp.draw(&r.rng)
		l2, x2 := r.lp.LeaderInteract(r.Cfg.Leader, x)
		changed := x2 != x || !l2.Equal(r.Cfg.Leader)
		r.Cfg.Leader = l2
		if x2 != x {
			r.census.ApplyOne(x, x2)
			r.smp.sync(x)
			r.smp.sync(x2)
		}
		if r.Obs != nil {
			r.Obs.ObserveLeaderRule(x, x2, changed)
		}
		return changed
	}
	p := r.smp.draw(&r.rng)
	q := r.drawResponder(p)
	p2, q2 := r.tab.At(r.tab.Idx(p, q))
	changed := p2 != p || q2 != q
	if changed {
		r.census.Apply(p, q, p2, q2)
		r.smp.sync(p)
		r.smp.sync(q)
		r.smp.sync(p2)
		r.smp.sync(q2)
	}
	if r.Obs != nil {
		r.Obs.ObserveRule(p, q, p2, q2, changed)
	}
	return changed
}

// drawResponder draws the responder state: a c-proportional draw that,
// when it collides with the initiator's state p, is kept only with
// probability (c[p]−1)/c[p] — the chance that a uniformly random agent
// of state p is not the initiator itself. The accepted draw is exactly
// the state of a uniformly random agent among the other N−1; the
// rejection probability is 1/N per attempt.
func (r *CountRunner) drawResponder(p core.State) core.State {
	for {
		q := r.smp.draw(&r.rng)
		if q != p {
			return q
		}
		if cp := uint64(r.Cfg.Counts[p]); r.rng.uint64n(cp) < cp-1 {
			return q
		}
	}
}

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed. Silence is checked
// initially and then whenever the execution has been quiet (all-null)
// for a full QuietThreshold window — the same schedule as Runner.Run,
// so the two engines' Steps distributions are comparable. When Obs is
// set, Run finishes it before returning.
func (r *CountRunner) Run(maxSteps int) (CountResult, error) {
	if err := r.ensure(); err != nil {
		return CountResult{}, err
	}
	res := r.run(maxSteps)
	if r.Obs != nil {
		r.Obs.Finish(res.Converged)
	}
	return res, nil
}

func (r *CountRunner) run(maxSteps int) CountResult {
	if r.silent() {
		return CountResult{Converged: true, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
	}
	threshold := r.quietThreshold()
	const interruptMask = 1<<14 - 1
	for r.steps < maxSteps {
		if r.Interrupt != nil && r.steps&interruptMask == 0 && r.Interrupt() {
			break
		}
		changed := r.step()
		r.steps++
		if changed {
			r.nonNull++
			r.quiet = 0
		} else {
			r.quiet++
			if r.quiet%threshold == 0 && r.silent() {
				return CountResult{Converged: true, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
			}
		}
	}
	return CountResult{Converged: r.silent(), Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

// UniformCountConfig builds the protocol's intended starting
// configuration in count space: all N agents in the uniform initial
// mobile state (state 0 when the protocol declares none) plus the
// initialized leader — UniformConfig without the agent array.
func UniformCountConfig(p core.Protocol, n int) *core.CountConfig {
	var s core.State
	if up, ok := p.(core.UniformInitProtocol); ok {
		s = up.InitMobile()
	}
	cc := core.NewCountConfig(p.States())
	cc.Counts[s] = n
	if lp, ok := p.(core.LeaderProtocol); ok {
		cc.Leader = lp.InitLeader()
	}
	return cc
}

// AgentStart builds the agent-engine start for an initialization key,
// the counterpart of CountStart: "zero" puts all n agents in state 0
// with the leader initialized, "uniform" is UniformConfig, and
// "arbitrary" is ArbitraryConfig drawn from seed, for protocols that
// support it. Other keys are an error.
func AgentStart(p core.Protocol, n int, initKey string, seed int64) (*core.Config, error) {
	switch initKey {
	case "zero":
		cfg := core.NewConfig(n, 0)
		if lp, ok := p.(core.LeaderProtocol); ok {
			cfg.Leader = lp.InitLeader()
		}
		return cfg, nil
	case "uniform":
		return UniformConfig(p, n), nil
	case "arbitrary":
		ap, ok := p.(core.ArbitraryInitProtocol)
		if !ok {
			return nil, fmt.Errorf("protocol %q does not support arbitrary initialization", p.Name())
		}
		return ArbitraryConfig(ap, n, rand.New(rand.NewSource(seed))), nil
	}
	return nil, fmt.Errorf("unknown init %q (zero | uniform | arbitrary)", initKey)
}

// AgentScheduler builds the agent-engine scheduler for a scheduler key,
// the counterpart of AgentStart: "random" draws pairs from seed,
// "roundrobin" and "matching" are deterministic, and matching is
// leaderless only and needs an even n. Other keys, and a population
// with no pair to schedule (n < 1, or n < 2 without a leader), are an
// error, reported before any constructor could panic on them.
func AgentScheduler(p core.Protocol, n int, key string, seed int64) (sched.Scheduler, error) {
	withLeader := core.HasLeader(p)
	if n < 1 || (n < 2 && !withLeader) {
		return nil, fmt.Errorf("population n=%d (leader=%v) has no pair to schedule", n, withLeader)
	}
	switch key {
	case "random":
		return sched.NewRandom(n, withLeader, seed), nil
	case "roundrobin":
		return sched.NewRoundRobin(n, withLeader), nil
	case "matching":
		if withLeader {
			return nil, fmt.Errorf("matching scheduler is leaderless only")
		}
		if n%2 != 0 {
			return nil, fmt.Errorf("matching scheduler needs an even population, got n=%d", n)
		}
		return sched.NewMatching(n), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (random | roundrobin | matching)", key)
}

// CountStart builds the count-space start for an initialization key:
// "zero" puts all n agents in state 0, "uniform" is UniformCountConfig,
// and a leader starts initialized either way. Other keys have no count
// representation ("arbitrary" draws an agent array) and are an error.
func CountStart(p core.Protocol, n int, initKey string) (*core.CountConfig, error) {
	switch initKey {
	case "zero":
		cc := core.NewCountConfig(p.States())
		cc.Counts[0] = n
		if lp, ok := p.(core.LeaderProtocol); ok {
			cc.Leader = lp.InitLeader()
		}
		return cc, nil
	case "uniform":
		return UniformCountConfig(p, n), nil
	}
	return nil, fmt.Errorf("init %q is not count-representable (zero | uniform)", initKey)
}

// CountUnsupported names the first part of a run request the count
// engine cannot honor, or returns "" when the request is count-runnable.
// The engine sees per-state counts under the uniform random pair law and
// runs each trial in one unsliced pass, so fault plans, supervision
// beyond the step budget, schedulers other than random and arbitrary
// initialization are out. feature is "faults", "supervision",
// "sched:<key>" or "init:arbitrary"; reason says why. Empty schedKey and
// initKey stand for the defaults, random and zero.
func CountUnsupported(faults bool, sup Supervision, schedKey, initKey string) (feature, reason string) {
	switch {
	case faults:
		return "faults", "fault kinds target individual agents"
	case sup.Deadline != 0 || sup.Retries != 0 || sup.StallQuiet != 0:
		return "supervision", "count trials run unsupervised: deadlines and stall retries are agent-engine features"
	case schedKey != "" && schedKey != "random":
		return "sched:" + schedKey, "count dynamics are defined only for the uniform random scheduler"
	case initKey == "arbitrary":
		return "init:arbitrary", "arbitrary initialization draws an agent array"
	}
	return "", ""
}
