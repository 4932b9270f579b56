package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"popnaming/internal/core"
	"popnaming/internal/obs"
	"popnaming/internal/rng"
	"popnaming/internal/sched"
)

// The count-based (Gillespie) engine. Under the uniform random
// scheduler a configuration is fully described by its per-state counts:
// every ordered pair of distinct entities (N agents, plus the leader
// when there is one) is equally likely, so a step draws from T = N(N−1)
// ordered pairs, or N(N+1) with a leader. CountRunner applies the
// compiled transition directly to the counts and never materializes an
// agent array — its cost depends on |Q| and on how many interactions
// change anything, not on N.
//
// Most interactions change nothing once N ≫ |Q|, so the engine draws
// only the ones that do. It keeps W, the number of non-null ordered
// pairs of the current configuration:
//
//   - R[x] = Σ_{y : (x,y) non-null} c[y] − [(x,x) non-null] is the number
//     of non-null responders of one initiator in state x, and
//     w[x] = c[x]·R[x] the non-null pairs it initiates, summed by blocks
//     of consecutive states;
//   - leaderC counts the agents whose leader interaction is non-null;
//     with roles collapsed, each gives the leader two ordered pairs;
//   - W = Σ w + 2·leaderC.
//
// Until the configuration changes, every step is non-null with
// probability W/T, independently, so the number of null steps before
// the next non-null one is geometric and is drawn in one go (nullRun);
// the non-null pair is then uniform over the W pairs (pair). Null runs
// advance the step count, the observer and the interrupt poll in bulk.
// The configuration is silent exactly when W = 0. A count change at
// state s moves R only for the initiators in column s of the non-null
// table (move).
//
// The weights w are summed over blocks of 2^k consecutive states,
// k = ⌈log₂ √|Q|⌉ (8 blocks of 8 states at |Q| = 64, 32 of 32 at the
// 1024-state cap): a move reweighs every initiator in a column, so
// writes outnumber searches, and reweigh updates a row, its block and W
// in O(1). pair finds the initiator of an index u by scanning blocks,
// then the rows of one block, in O(√|Q|). Whatever the search, it must
// return the first state whose cumulative weight exceeds u: every
// pinned stream depends on that map from indices to states.

// countRNG supplies unbiased bounded uniforms from math/rand's
// generator (rng.Source: the same stream, drawn without an interface
// call). The agent scheduler tolerates multiply-shift bias (a fairness
// statistic cannot resolve span/2³²), but the count engine's draws
// partition exact integer weights, so it uses Lemire's debiased method:
// one multiply per draw, a second only in the rare sliver where the low
// word forces the bias check.
type countRNG struct {
	src *rng.Source
}

// seed restarts the generator at seed's stream, allocating its source
// on first use and reusing it after.
func (r *countRNG) seed(seed int64) {
	if r.src == nil {
		r.src = new(rng.Source)
	}
	r.src.Seed(seed)
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

// unit returns a uniform draw from (0, 1] on the 2⁻⁵³ grid.
func (r *countRNG) unit() float64 {
	return float64(r.src.Uint64()>>11+1) * 0x1p-53
}

// countRow is one initiator state's share of the non-null weight.
type countRow struct {
	resp int64  // R[x]; −1 only while x is unoccupied
	w    uint64 // c[x]·R[x], as last added into its block
	// leader reports that the leader's interaction with state x is
	// non-null; it is kept current for occupied states only.
	leader bool
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
// semantics match Runner exactly: a converged run reports the step of
// its last state change plus one full QuietThreshold window of null
// interactions, so the two engines' convergence-step distributions
// agree (the differential tests hold them to a Kolmogorov–Smirnov test,
// and the law tests hold the count engine to the exact law).
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

	// Interrupt, when non-nil, is polled before every interaction whose
	// index is a multiple of 2¹⁴, null runs included; a true return
	// stops the run at that boundary (Converged reports the actual
	// silence state).
	Interrupt func() bool

	tab *core.Compiled
	adj *core.Adjacency
	rng countRNG
	lp  core.LeaderProtocol
	n   int
	// pairs is T, the number of ordered pairs a step draws from.
	pairs uint64

	rows    []countRow
	blocks  []uint64 // blocks[b] = Σ rows[x].w over x>>shift = b
	shift   uint     // log₂ of the states per block
	mobileW uint64   // Σ rows[x].w
	leaderC uint64   // agents whose leader interaction is non-null

	steps   int
	nonNull int
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
	r := new(CountRunner)
	if err := r.reset(p, tab, cfg, seed); err != nil {
		return nil, err
	}
	return r, nil
}

// reset makes r the runner newCountRunner(p, tab, cfg, seed) returns,
// keeping its weight rows, blocks and generator for the engine to
// reuse, and reports the same error.
func (r *CountRunner) reset(p core.Protocol, tab *core.Compiled, cfg *core.CountConfig, seed int64) error {
	if core.HasLeader(p) != (cfg.Leader != nil) {
		return fmt.Errorf("sim: protocol %q and count configuration disagree about leader presence", p.Name())
	}
	if tab == nil {
		if q := p.States(); q > maxCompiledStates {
			return fmt.Errorf("sim: count engine requires a compiled table: %q has %d states (max %d)", p.Name(), q, maxCompiledStates)
		}
		var err error
		if tab, err = core.Compile(p); err != nil {
			return fmt.Errorf("sim: count engine requires a compiled table: %w", err)
		}
	}
	if len(cfg.Counts) != p.States() {
		return fmt.Errorf("sim: count configuration has %d states, protocol %q declares %d", len(cfg.Counts), p.Name(), p.States())
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.N()
	if n < 2 && cfg.Leader == nil {
		return fmt.Errorf("sim: population too small for interactions (n=%d, no leader)", n)
	}
	if n < 1 {
		return fmt.Errorf("sim: population too small for interactions (n=%d)", n)
	}
	pairs, _ := core.TotalPairWeight(n, cfg.Leader != nil)
	lp, _ := p.(core.LeaderProtocol)
	*r = CountRunner{Proto: p, Cfg: cfg, Seed: seed, tab: tab, lp: lp, n: n, pairs: pairs,
		rng: r.rng, rows: r.rows[:0], blocks: r.blocks[:0]}
	return nil
}

// Steps returns the number of interactions executed so far.
func (r *CountRunner) Steps() int { return r.steps }

// NonNull returns the number of state-changing interactions so far.
func (r *CountRunner) NonNull() int { return r.nonNull }

// ensure builds the pair weights and the RNG on first use, honoring an
// Obs field assigned after construction.
func (r *CountRunner) ensure() error {
	if r.ready {
		return nil
	}
	if len(r.Cfg.Counts) != r.tab.States() || r.Cfg.N() != r.n {
		return fmt.Errorf("sim: count configuration changed shape since NewCountRunner (%d states, %d agents)", len(r.Cfg.Counts), r.Cfg.N())
	}
	if err := r.Cfg.Validate(); err != nil {
		return err
	}
	r.adj = r.tab.NonNull()
	q := len(r.Cfg.Counts)
	r.rows = slices.Grow(r.rows[:0], q)[:q]
	clear(r.rows)
	r.shift = uint(bits.Len(uint(q-1))+1) / 2 // ⌈log₂ √q⌉
	nb := (q-1)>>r.shift + 1
	r.blocks = slices.Grow(r.blocks[:0], nb)[:nb]
	clear(r.blocks)
	for x := range r.rows {
		r.rows[x].resp = r.recountResp(core.State(x))
		r.reweigh(core.State(x))
	}
	if r.lp != nil {
		r.leaderSet()
	}
	r.rng.seed(r.Seed)
	if r.Obs != nil {
		r.Obs.CompileRules(r.tab)
		r.Obs.TrackCensus(r.Cfg.Counts)
	}
	r.ready = true
	return nil
}

// recountResp recomputes R[x] from the counts.
func (r *CountRunner) recountResp(x core.State) int64 {
	var resp int64
	for _, y := range r.adj.Row(x) {
		resp += int64(r.Cfg.Counts[y])
		if y == x {
			resp--
		}
	}
	return resp
}

// weight returns W, the number of non-null ordered pairs.
func (r *CountRunner) weight() uint64 { return r.mobileW + 2*r.leaderC }

func (r *CountRunner) quietThreshold() int {
	if r.QuietThreshold > 0 {
		return r.QuietThreshold
	}
	return QuietWindow(r.n)
}

// reweigh writes w[x] = c[x]·R[x] into its row, its block and W.
func (r *CountRunner) reweigh(x core.State) {
	row := &r.rows[x]
	var w uint64
	if c := r.Cfg.Counts[x]; c > 0 {
		w = uint64(c) * uint64(row.resp)
	}
	d := w - row.w // modular: the sums stay exact
	if d == 0 {
		return
	}
	row.w = w
	r.mobileW += d
	r.blocks[int(x)>>r.shift] += d
}

// move adds d (±1) agents to state s and updates every weight that
// depends on c[s]: R of each initiator in column s, the rows whose w
// moved, and leaderC. A newly occupied state gets its leader flag.
func (r *CountRunner) move(s core.State, d int) {
	r.Cfg.Counts[s] += d
	self := false
	for _, x := range r.adj.Col(s) {
		r.rows[x].resp += int64(d)
		r.reweigh(x)
		self = self || x == s
	}
	if !self {
		r.reweigh(s)
	}
	if r.lp == nil {
		return
	}
	row := &r.rows[s]
	if d > 0 && r.Cfg.Counts[s] == 1 {
		row.leader = !core.IsNullLeader(r.lp, r.Cfg.Leader, s)
	}
	if row.leader {
		r.leaderC += uint64(d)
	}
}

// leaderSet re-evaluates the leader flag of every occupied state against
// the current leader state and recounts leaderC. Unoccupied states are
// skipped: a leader interaction boxes its result, and move evaluates a
// state when it becomes occupied.
func (r *CountRunner) leaderSet() {
	r.leaderC = 0
	for x, c := range r.Cfg.Counts {
		if c == 0 {
			continue
		}
		nn := !core.IsNullLeader(r.lp, r.Cfg.Leader, core.State(x))
		r.rows[x].leader = nn
		if nn {
			r.leaderC += uint64(c)
		}
	}
}

// nullRun draws the number of null interactions before the next
// non-null one, geometric with success probability W/T, together with
// the index u of that non-null pair, uniform on [0, W). When
// W ≥ ⌊T/4⌋ it draws pairs on [0, T) until one falls below W, which is
// then the index (T/W ≤ about four draws on average, no logarithm);
// otherwise it inverts the geometric law with one log and one log1p,
// then draws the index. Both are exact in law. Measured per draw,
// rejection is the cheaper from W/T ≈ 0.2 up, so the switch sits at a
// quarter, written T>>2 so that it cannot overflow near
// core.MaxCountN. The returned run may exceed any step budget.
func (r *CountRunner) nullRun(w uint64) (run float64, u uint64) {
	if w >= r.pairs>>2 {
		for {
			if u = r.rng.uint64n(r.pairs); u < w {
				return run, u
			}
			run++
		}
	}
	run = math.Floor(math.Log(r.rng.unit()) / math.Log1p(-float64(w)/float64(r.pairs)))
	return run, r.rng.uint64n(w)
}

// pair maps an index u in [0, W) to its non-null interaction. The
// first 2·leaderC indices are the leader meeting agent ⌊u/2⌋ of the
// leader-non-null states (leader is true and x is that agent's state);
// the rest select the initiator state x, the first whose cumulative
// weight exceeds the remaining index (found block by block, then row by
// row), and a responder state y among its R[x] non-null partners with a
// fresh draw.
func (r *CountRunner) pair(u uint64) (x, y core.State, leader bool) {
	lw := 2 * r.leaderC
	if u < lw {
		return r.leaderPeer(u / 2), 0, true
	}
	u -= lw
	b := 0
	for u >= r.blocks[b] {
		u -= r.blocks[b]
		b++
	}
	i := b << r.shift
	for u >= r.rows[i].w {
		u -= r.rows[i].w
		i++
	}
	x = core.State(i)
	v := r.rng.uint64n(uint64(r.rows[x].resp))
	for _, y = range r.adj.Row(x) {
		c := uint64(r.Cfg.Counts[y])
		if y == x {
			c--
		}
		if v < c {
			break
		}
		v -= c
	}
	return x, y, false
}

// leaderPeer returns the state of agent k, in state order, among the
// agents whose leader interaction is non-null.
func (r *CountRunner) leaderPeer(k uint64) core.State {
	for s, c := range r.Cfg.Counts {
		if c > 0 && r.rows[s].leader {
			if k < uint64(c) {
				return core.State(s)
			}
			k -= uint64(c)
		}
	}
	panic("sim: leader peer index past leaderC")
}

// apply executes the non-null interaction with index u in [0, W).
func (r *CountRunner) apply(u uint64) {
	x, y, leader := r.pair(u)
	if leader {
		l := r.Cfg.Leader
		l2, x2 := r.lp.LeaderInteract(l, x)
		r.Cfg.Leader = l2
		if x2 != x {
			r.move(x, -1)
			r.move(x2, 1)
		}
		if !l2.Equal(l) {
			r.leaderSet()
		}
		if r.Obs != nil {
			r.Obs.ObserveLeaderRule(x, x2, true)
		}
		return
	}
	x2, y2 := r.tab.At(r.tab.Idx(x, y))
	if x2 != x {
		r.move(x, -1)
		r.move(x2, 1)
	}
	if y2 != y {
		r.move(y, -1)
		r.move(y2, 1)
	}
	if r.Obs != nil {
		r.Obs.ObserveRule(x, y, x2, y2, true)
	}
}

// Run executes interactions until the configuration is silent or
// maxSteps interactions have been executed. Silence is checked
// initially; once a state change leaves the configuration silent, the
// run goes on for one full QuietThreshold window of null interactions
// (or to the budget) and stops — the schedule of Runner.Run, so the two
// engines' Steps distributions are comparable. When Obs is set, Run
// finishes it before returning.
func (r *CountRunner) Run(maxSteps int) (CountResult, error) {
	if err := r.ensure(); err != nil {
		return CountResult{}, err
	}
	res := r.run(maxSteps)
	if r.Obs != nil {
		r.Obs.SetValidNaming(r.Cfg.ValidNaming())
		r.Obs.Finish(res.Converged)
	}
	return res, nil
}

const interruptMask = 1<<14 - 1

func (r *CountRunner) run(maxSteps int) CountResult {
	if r.weight() == 0 {
		return r.result()
	}
	threshold := r.quietThreshold()
	for r.steps < maxSteps {
		left := maxSteps - r.steps
		w := r.weight()
		if w == 0 {
			r.nulls(min(threshold, left))
			break
		}
		run, u := r.nullRun(w)
		if run >= float64(left) {
			r.nulls(left)
			break
		}
		if !r.nulls(int(run)) || r.interrupted() {
			break
		}
		r.apply(u)
		r.steps++
		r.nonNull++
	}
	return r.result()
}

func (r *CountRunner) result() CountResult {
	return CountResult{Converged: r.weight() == 0, Steps: r.steps, NonNull: r.nonNull, Final: r.Cfg}
}

// interrupted polls Interrupt when the next interaction's index is a
// multiple of 2¹⁴.
func (r *CountRunner) interrupted() bool {
	return r.Interrupt != nil && r.steps&interruptMask == 0 && r.Interrupt()
}

// nulls executes k null interactions in bulk, polling Interrupt at every
// multiple of 2¹⁴ it crosses as the per-interaction loop would. It
// reports false when the poll stopped the run, at that boundary.
func (r *CountRunner) nulls(k int) bool {
	end := r.steps + k
	if r.Interrupt != nil {
		for b := (r.steps + interruptMask) &^ interruptMask; b < end; b += interruptMask + 1 {
			r.skip(b - r.steps)
			if r.Interrupt() {
				return false
			}
			if end-b <= interruptMask {
				break
			}
		}
	}
	r.skip(end - r.steps)
	return true
}

func (r *CountRunner) skip(k int) {
	r.steps += k
	if r.Obs != nil && k > 0 {
		r.Obs.ObserveNulls(k)
	}
}

// UniformCountConfig builds the protocol's intended starting
// configuration in count space: all N agents in the uniform initial
// mobile state (state 0 when the protocol declares none) plus the
// initialized leader — UniformConfig without the agent array.
func UniformCountConfig(p core.Protocol, n int) *core.CountConfig {
	cc := new(core.CountConfig)
	_ = countStart(cc, p, n, "uniform")
	return cc
}

// AgentStart builds the agent-engine start for an initialization key,
// the counterpart of CountStart: "zero" puts all n agents in state 0
// with the leader initialized, "uniform" is UniformConfig, and
// "arbitrary" is ArbitraryConfig drawn from seed, for protocols that
// support it. Other keys are an error.
func AgentStart(p core.Protocol, n int, initKey string, seed int64) (*core.Config, error) {
	var s agentStart
	if err := s.reset(p, n, initKey, seed); err != nil {
		return nil, err
	}
	cfg := s.cfg
	return &cfg, nil
}

// AgentScheduler builds the agent-engine scheduler for a scheduler key,
// the counterpart of AgentStart: "random" draws pairs from seed,
// "roundrobin" and "matching" are deterministic. A request
// CheckAgentScheduler rejects is an error, reported before any
// constructor could panic on it.
func AgentScheduler(p core.Protocol, n int, key string, seed int64) (sched.Scheduler, error) {
	return agentScheduler(new(sched.Random), p, n, key, seed)
}

// agentScheduler is AgentScheduler with a random scheduler reset in
// rnd.
func agentScheduler(rnd *sched.Random, p core.Protocol, n int, key string, seed int64) (sched.Scheduler, error) {
	if err := CheckAgentScheduler(p, n, key); err != nil {
		return nil, err
	}
	switch key {
	case "random":
		rnd.Reset(n, core.HasLeader(p), seed)
		return rnd, nil
	case "roundrobin":
		return sched.NewRoundRobin(n, core.HasLeader(p)), nil
	}
	return sched.NewMatching(n), nil
}

// CheckAgentScheduler reports why AgentScheduler would fail, without
// building a scheduler: a population with no pair to schedule (n < 1,
// or n < 2 without a leader), a matching scheduler with a leader or an
// odd n, or a key other than random, roundrobin and matching.
func CheckAgentScheduler(p core.Protocol, n int, key string) error {
	withLeader := core.HasLeader(p)
	if n < 1 || (n < 2 && !withLeader) {
		return fmt.Errorf("population n=%d (leader=%v) has no pair to schedule", n, withLeader)
	}
	switch key {
	case "random", "roundrobin":
		return nil
	case "matching":
		if withLeader {
			return fmt.Errorf("matching scheduler is leaderless only")
		}
		if n%2 != 0 {
			return fmt.Errorf("matching scheduler needs an even population, got n=%d", n)
		}
		return nil
	}
	return fmt.Errorf("unknown scheduler %q (random | roundrobin | matching)", key)
}

// CountStart builds the count-space start for an initialization key:
// "zero" puts all n agents in state 0, "uniform" is UniformCountConfig,
// and a leader starts initialized either way. Other keys have no count
// representation ("arbitrary" draws an agent array) and are an error.
func CountStart(p core.Protocol, n int, initKey string) (*core.CountConfig, error) {
	cc := new(core.CountConfig)
	if err := countStart(cc, p, n, initKey); err != nil {
		return nil, err
	}
	return cc, nil
}

// countStart makes cc the start CountStart(p, n, initKey) returns, and
// reports the same error.
func countStart(cc *core.CountConfig, p core.Protocol, n int, initKey string) error {
	var s core.State
	switch initKey {
	case "zero":
	case "uniform":
		if up, ok := p.(core.UniformInitProtocol); ok {
			s = up.InitMobile()
		}
	default:
		return fmt.Errorf("init %q is not count-representable (zero | uniform)", initKey)
	}
	cc.Reset(p.States())
	cc.Counts[s] = n
	if lp, ok := p.(core.LeaderProtocol); ok {
		cc.Leader = lp.InitLeader()
	}
	return nil
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
