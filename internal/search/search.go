// Package search exhaustively enumerates deterministic symmetric
// leaderless protocols over a small state space and model-checks each
// against the naming problem, providing machine-checked confirmation of
// the paper's lower bounds on tiny instances:
//
//   - Proposition 1/2, uniform initialization: no symmetric leaderless
//     protocol names even a 2-agent population from a uniform start
//     (symmetric rules preserve the all-equal configuration), under
//     either fairness.
//   - Proposition 2, the P-state lower bound behind Proposition 13's
//     P+1-state protocol: with only q = P states per agent, no symmetric
//     leaderless protocol self-stabilizingly names a population of P
//     agents even under global fairness. The search over all 19683
//     symmetric 3-state protocols at N = P = 3 finds zero survivors,
//     while Proposition 13's protocol with P+1 states passes the exact
//     same model check (see internal/naming tests).
//
// The symmetric protocol space over q states has q^q choices for the
// same-state rules (p,p) -> (r,r) and (q^2)^C(q,2) choices for the
// distinct-state rules: 16 protocols for q = 2 and 19683 for q = 3.
//
// The candidate space is a mixed-radix coordinate system, so it splits
// into contiguous shards checked by a pool of workers
// (Options.Workers); shard results are merged in enumeration order, so
// the Result is byte-identical at any worker count. Soundness: a
// candidate whose model check aborts (state space over Options.MaxNodes)
// is reported in Result.Inconclusive, never silently refuted — a "zero
// survivors" claim is only meaningful when Inconclusive is empty too.
package search

import (
	"fmt"
	"strconv"
	"sync"

	"popnaming/internal/core"
	"popnaming/internal/explore"
)

// Fairness selects the convergence notion to check.
type Fairness int

const (
	// Global checks convergence under global fairness (terminal SCCs).
	Global Fairness = iota
	// Weak checks convergence under weak fairness (fair SCCs).
	Weak
)

func (f Fairness) String() string {
	if f == Global {
		return "global"
	}
	return "weak"
}

// Init selects the initialization regime a candidate is granted.
type Init int

const (
	// BestUniform lets the candidate pick its favourite uniform start
	// state; it survives if some single state works for all sizes.
	BestUniform Init = iota
	// Arbitrary demands convergence from every configuration
	// (self-stabilization).
	Arbitrary
)

func (i Init) String() string {
	if i == BestUniform {
		return "best-uniform"
	}
	return "arbitrary"
}

// DefaultMaxNodes is the per-candidate state-space cap used when
// Options.MaxNodes is zero.
const DefaultMaxNodes = 1 << 16

// Options tunes an exhaustive search without changing its meaning.
type Options struct {
	// Workers splits the candidate space into that many contiguous
	// shards checked concurrently; <= 1 searches sequentially. The
	// Result is byte-identical at any worker count.
	Workers int
	// MaxNodes caps each candidate's explored state space
	// (DefaultMaxNodes when zero). Candidates that overflow it are
	// counted in Result.Inconclusive.
	MaxNodes int
}

// Survivor records a candidate that passed every convergence check —
// the paper predicts there are none in the searched regimes.
type Survivor struct {
	Rules []core.Rule
	// Start is the winning uniform start state (BestUniform only).
	Start core.State
}

// Candidate identifies one enumerated protocol by its position in
// enumeration order, with its non-null rules.
type Candidate struct {
	Index int
	Rules []core.Rule
}

// Result summarizes an exhaustive search.
type Result struct {
	Q         int
	Sizes     []int
	Fairness  Fairness
	Init      Init
	Protocols int
	Survivors []Survivor
	// Inconclusive lists candidates whose model check hit the node
	// budget (explore.ErrTooLarge) without being conclusively refuted:
	// they are neither survivors nor refuted. A sound impossibility
	// claim requires both Survivors and Inconclusive to be empty.
	Inconclusive []Candidate
}

func (r Result) String() string {
	return fmt.Sprintf("searched %d symmetric %d-state protocols (sizes %v, %s fairness, %s init): %d survivors, %d inconclusive",
		r.Protocols, r.Q, r.Sizes, r.Fairness, r.Init, len(r.Survivors), len(r.Inconclusive))
}

// pairSlot is one unordered distinct-state pair (p, q) with p < q.
type pairSlot struct{ p, q int }

// symSpace is the mixed-radix coordinate system of the symmetric
// protocol space over q states: slots [0, q) choose r in (p,p)->(r,r)
// (radix q each) and the remaining C(q,2) slots choose (p',q') in
// (p,q)->(p',q') for p < q, encoded as p'*q+q' (radix q² each).
// Candidate indices enumerate the space in little-endian mixed-radix
// order, so any contiguous index range is a well-defined shard.
type symSpace struct {
	q        int
	distinct []pairSlot
	radix    []int
	total    int
}

func newSymSpace(q int) symSpace {
	s := symSpace{q: q}
	for p := 0; p < q; p++ {
		for r := p + 1; r < q; r++ {
			s.distinct = append(s.distinct, pairSlot{p, r})
		}
	}
	s.radix = make([]int, q+len(s.distinct))
	s.total = 1
	for i := range s.radix {
		if i < q {
			s.radix[i] = q
		} else {
			s.radix[i] = q * q
		}
		s.total *= s.radix[i]
	}
	return s
}

// decode writes idx's mixed-radix digits into counter.
func (s *symSpace) decode(idx int, counter []int) {
	for i, r := range s.radix {
		counter[i] = idx % r
		idx /= r
	}
}

// increment advances counter to the next candidate, reporting false on
// wraparound past the end of the space.
func (s *symSpace) increment(counter []int) bool {
	for i := range counter {
		counter[i]++
		if counter[i] < s.radix[i] {
			return true
		}
		counter[i] = 0
	}
	return false
}

// fill programs t with the candidate encoded by counter. Every cell of
// the q² transition table is overwritten (q same-state rules plus both
// orientations of C(q,2) distinct-state rules), so a single table can
// be reused across candidates without resetting.
func (s *symSpace) fill(t *core.RuleTable, counter []int) {
	for p := 0; p < s.q; p++ {
		r := core.State(counter[p])
		t.AddSymmetric(core.State(p), core.State(p), r, r)
	}
	for i, ps := range s.distinct {
		code := counter[s.q+i]
		t.AddSymmetric(core.State(ps.p), core.State(ps.q), core.State(code/s.q), core.State(code%s.q))
	}
}

// EnumerateSymmetric calls fn with every deterministic symmetric
// leaderless protocol over q states (fn must not retain the table). It
// returns the number of protocols enumerated.
func EnumerateSymmetric(q int, fn func(*core.RuleTable)) int {
	return EnumerateSymmetricRange(q, 0, newSymSpace(q).total,
		func(_ int, t *core.RuleTable) { fn(t) })
}

// EnumerateSymmetricRange calls fn with the candidates lo..hi-1 of the
// enumeration order, in order, passing each candidate's index. One
// RuleTable is reused across all calls (fn must not retain it). It
// returns the number of candidates enumerated. Out-of-range bounds are
// clamped to [0, total].
func EnumerateSymmetricRange(q, lo, hi int, fn func(idx int, t *core.RuleTable)) int {
	s := newSymSpace(q)
	if lo < 0 {
		lo = 0
	}
	if hi > s.total {
		hi = s.total
	}
	if lo >= hi {
		return 0
	}
	counter := make([]int, len(s.radix))
	s.decode(lo, counter)
	t := core.NewRuleTable("search", q, q)
	for idx := lo; idx < hi; idx++ {
		t.SetName("search-" + strconv.Itoa(idx))
		s.fill(t, counter)
		fn(idx, t)
		s.increment(counter)
	}
	return hi - lo
}

// SymmetricNaming searches all symmetric leaderless q-state protocols
// for one that solves naming for every population size in sizes under
// the given fairness and initialization regime, sequentially with the
// default node budget. See SymmetricNamingOpts.
func SymmetricNaming(q int, sizes []int, fairness Fairness, init Init) Result {
	return SymmetricNamingOpts(q, sizes, fairness, init, Options{})
}

// SymmetricNamingOpts is SymmetricNaming with explicit worker and node
// budget options. The candidate space is split into
// Options.Workers contiguous shards; each worker reuses one RuleTable
// across its shard and shares the precomputed start sets (Build never
// mutates or aliases them). Shard results are concatenated in shard
// order, which is enumeration order, so the Result — survivor set,
// Protocols, Inconclusive — is byte-identical at any worker count.
func SymmetricNamingOpts(q int, sizes []int, fairness Fairness, init Init, opts Options) Result {
	space := newSymSpace(q)
	res := Result{Q: q, Sizes: sizes, Fairness: fairness, Init: init, Protocols: space.total}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > space.total {
		workers = space.total
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	// Start sets, computed once and shared by every candidate and
	// worker: uniform[s0][i] for BestUniform, arbitrary[i] for
	// Arbitrary (i indexes sizes).
	var uniform [][][]*core.Config
	var arbitrary [][]*core.Config
	switch init {
	case BestUniform:
		uniform = make([][][]*core.Config, q)
		for s0 := 0; s0 < q; s0++ {
			uniform[s0] = make([][]*core.Config, len(sizes))
			for i, n := range sizes {
				uniform[s0][i] = []*core.Config{core.NewConfig(n, core.State(s0))}
			}
		}
	case Arbitrary:
		arbitrary = make([][]*core.Config, len(sizes))
		for i, n := range sizes {
			arbitrary[i] = explore.AllConfigs(q, n)
		}
	}

	type shardOut struct {
		survivors    []Survivor
		inconclusive []Candidate
	}
	outs := make([]shardOut, workers)

	runShard := func(w, lo, hi int) {
		out := &outs[w]
		EnumerateSymmetricRange(q, lo, hi, func(idx int, t *core.RuleTable) {
			switch init {
			case BestUniform:
				found, sawInconclusive := false, false
				for s0 := 0; s0 < q; s0++ {
					switch checkAll(t, uniform[s0], fairness, maxNodes) {
					case candidateSolved:
						out.survivors = append(out.survivors, Survivor{Rules: t.Rules(), Start: core.State(s0)})
						found = true
					case candidateInconclusive:
						sawInconclusive = true
					}
				}
				if !found && sawInconclusive {
					out.inconclusive = append(out.inconclusive, Candidate{Index: idx, Rules: t.Rules()})
				}
			case Arbitrary:
				switch checkAll(t, arbitrary, fairness, maxNodes) {
				case candidateSolved:
					out.survivors = append(out.survivors, Survivor{Rules: t.Rules()})
				case candidateInconclusive:
					out.inconclusive = append(out.inconclusive, Candidate{Index: idx, Rules: t.Rules()})
				}
			}
		})
	}

	if workers == 1 {
		runShard(0, 0, space.total)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * space.total / workers
			hi := (w + 1) * space.total / workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				runShard(w, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
	}

	for _, out := range outs {
		res.Survivors = append(res.Survivors, out.survivors...)
		res.Inconclusive = append(res.Inconclusive, out.inconclusive...)
	}
	return res
}

// candidateVerdict is the three-valued outcome of model-checking one
// candidate: refuted by a conclusive failed check, solved by passing
// every check, or inconclusive when some state space overflowed the
// node budget and no other size conclusively refuted it.
type candidateVerdict int

const (
	candidateRefuted candidateVerdict = iota
	candidateSolved
	candidateInconclusive
)

// checkAll model-checks one candidate against every start set (one per
// population size). An explore.Build error — the state space exceeding
// the node budget — must not count as a refutation: the candidate could
// be a survivor hiding behind the budget, so it is inconclusive unless
// some other size conclusively refutes it.
func checkAll(t *core.RuleTable, startSets [][]*core.Config, fairness Fairness, maxNodes int) candidateVerdict {
	sawError := false
	for _, starts := range startSets {
		g, err := explore.Build(t, starts, explore.Options{MaxNodes: maxNodes})
		if err != nil {
			sawError = true
			continue
		}
		var verdict explore.Verdict
		if fairness == Global {
			verdict = g.CheckGlobal(explore.Naming)
		} else {
			verdict = g.CheckWeak(explore.Naming)
		}
		if !verdict.OK {
			return candidateRefuted
		}
	}
	if sawError {
		return candidateInconclusive
	}
	return candidateSolved
}
