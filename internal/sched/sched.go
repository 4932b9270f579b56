// Package sched provides interaction schedulers for population-protocol
// simulation. A scheduler decides which pair of agents interacts at each
// step; the fairness of an execution is entirely a property of the
// scheduler.
//
// The package supplies:
//   - Random: uniform pair selection, which yields a globally fair
//     execution with probability 1 (Jiang 2007), the standard way the
//     paper's global-fairness results are exercised;
//   - RoundRobin: a deterministic enumeration of all ordered pairs,
//     yielding a weakly fair execution;
//   - Matching: the circle-method perfect-matching phase scheduler used
//     by the Proposition 1 adversary;
//   - Eclipse: hides one agent for a finite prefix (Theorem 11's
//     construction), remaining weakly fair overall;
//   - Replay and Chain: scripted and composite scheduling.
package sched

import (
	"fmt"

	"popnaming/internal/core"
	"popnaming/internal/rng"
)

// Scheduler yields an infinite sequence of interaction pairs for a fixed
// population. Implementations are not safe for concurrent use.
type Scheduler interface {
	// Name returns a short identifier for reports.
	Name() string
	// Next returns the next pair to interact.
	Next() core.Pair
}

// randBatch is the number of pairs drawn per rng refill of Random; the
// buffer amortizes the generator call and keeps Next a bounds-check and
// two loads on the hot path.
const randBatch = 128

// Random selects each interaction uniformly at random among all ordered
// pairs of distinct agents (including leader pairs when withLeader is
// set). A random execution is globally fair with probability 1.
//
// Pairs are drawn in batches: each refill consumes one 64-bit value per
// pair and derives both sides by fixed-point multiply-and-shift, so the
// steady-state cost of Next is a buffer load. The sequence is a
// deterministic function of the seed, as before.
//
// The source is rng.Source, math/rand's seeded stream drawn without an
// interface call. It is seeded on the first refill, not at
// construction: seeding fills a 607-word register, and a scheduler
// that never draws need not pay for it. It is not the lazily seeded
// rng.Lazy: the first refill alone draws 128 words, and a run draws
// thousands more, where Lazy's per-draw test would cost more than the
// seeding it saves. Reset turns a Random into a new one in place,
// keeping the register for the next seeding, so a batch worker runs
// all its trials on one scheduler (see sim.RunBatch); there is no pool
// and nothing to release.
type Random struct {
	n          int
	withLeader bool
	seed       int64
	src        *rng.Source // allocated on the first refill, kept by Reset
	seeded     bool        // src holds seed's stream
	lo         int
	buf        [randBatch]core.Pair
	pos        int
}

// NewRandom returns a uniform-random scheduler over n mobile agents,
// seeded deterministically for reproducibility.
func NewRandom(n int, withLeader bool, seed int64) *Random {
	s := new(Random)
	s.Reset(n, withLeader, seed)
	return s
}

// Reset makes s the scheduler NewRandom(n, withLeader, seed) returns:
// it draws that stream from its first Next on, whatever s drew before.
func (s *Random) Reset(n int, withLeader bool, seed int64) {
	if n < 1 || (n < 2 && !withLeader) {
		panic(fmt.Sprintf("sched: population too small for interactions (n=%d, leader=%v)", n, withLeader))
	}
	lo := 0
	if withLeader {
		lo = -1
	}
	s.n, s.withLeader, s.seed, s.lo = n, withLeader, seed, lo
	s.seeded = false
	s.pos = len(s.buf) // force a refill on first Next
}

// Name implements Scheduler.
func (s *Random) Name() string { return "random" }

// Next implements Scheduler.
func (s *Random) Next() core.Pair {
	if s.pos == len(s.buf) {
		s.refill()
	}
	p := s.buf[s.pos]
	s.pos++
	return p
}

// refill draws a full batch of pairs. Each pair consumes one Uint64:
// the low 32 bits select the initiator among span indices and the high
// 32 bits the responder among the remaining span-1 (multiply-shift
// range reduction; the bias of at most span/2³² is far below anything a
// fairness statistic can resolve).
func (s *Random) refill() {
	if !s.seeded {
		if s.src == nil {
			s.src = new(rng.Source)
		}
		s.src.Seed(s.seed)
		s.seeded = true
	}
	span := uint64(s.n - s.lo)
	for i := range s.buf {
		v := s.src.Uint64()
		a := s.lo + int((v&0xffffffff)*span>>32)
		b := s.lo + int((v>>32)*(span-1)>>32)
		if b >= a {
			b++
		}
		s.buf[i] = core.Pair{A: a, B: b}
	}
	s.pos = 0
}

// RoundRobin cycles deterministically through every ordered pair of
// distinct agents (and every leader-mobile pair in both roles when
// withLeader is set). Every pair interacts every cycle, so any infinite
// execution it drives is weakly fair.
type RoundRobin struct {
	pairs []core.Pair
	pos   int
}

// NewRoundRobin returns a weakly fair deterministic scheduler.
func NewRoundRobin(n int, withLeader bool) *RoundRobin {
	pairs := AllPairs(n, withLeader)
	if len(pairs) == 0 {
		panic("sched: no pairs available")
	}
	return &RoundRobin{pairs: pairs}
}

// Name implements Scheduler.
func (s *RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (s *RoundRobin) Next() core.Pair {
	p := s.pairs[s.pos]
	s.pos = (s.pos + 1) % len(s.pairs)
	return p
}

// CycleLen returns the number of pairs in one full round.
func (s *RoundRobin) CycleLen() int { return len(s.pairs) }

// AllPairs enumerates every ordered pair of distinct agent indices for a
// population of n mobile agents, including both (leader, i) and
// (i, leader) orders when withLeader is set.
func AllPairs(n int, withLeader bool) []core.Pair {
	lo := 0
	if withLeader {
		lo = -1
	}
	var pairs []core.Pair
	for a := lo; a < n; a++ {
		for b := lo; b < n; b++ {
			if a == b {
				continue
			}
			pairs = append(pairs, core.Pair{A: a, B: b})
		}
	}
	return pairs
}

// Replay plays a fixed script of pairs, then delegates to a fallback
// scheduler forever after. A nil fallback makes Next panic once the
// script is exhausted.
type Replay struct {
	script   []core.Pair
	pos      int
	fallback Scheduler
}

// NewReplay returns a scheduler that replays script then uses fallback.
func NewReplay(script []core.Pair, fallback Scheduler) *Replay {
	return &Replay{script: script, fallback: fallback}
}

// Name implements Scheduler.
func (s *Replay) Name() string { return "replay" }

// Next implements Scheduler.
func (s *Replay) Next() core.Pair {
	if s.pos < len(s.script) {
		p := s.script[s.pos]
		s.pos++
		return p
	}
	if s.fallback == nil {
		panic("sched: replay script exhausted with no fallback")
	}
	return s.fallback.Next()
}

// Remaining returns how many scripted pairs have not been played yet.
func (s *Replay) Remaining() int { return len(s.script) - s.pos }

// Chain runs the first scheduler for a fixed number of steps, then
// switches to the second forever.
type Chain struct {
	first  Scheduler
	second Scheduler
	limit  int
	done   int
}

// NewChain returns a scheduler that draws limit pairs from first and
// everything after from second.
func NewChain(first Scheduler, limit int, second Scheduler) *Chain {
	if limit < 0 {
		panic("sched: negative chain limit")
	}
	return &Chain{first: first, second: second, limit: limit}
}

// Name implements Scheduler.
func (s *Chain) Name() string {
	return fmt.Sprintf("chain(%s,%d,%s)", s.first.Name(), s.limit, s.second.Name())
}

// Next implements Scheduler.
func (s *Chain) Next() core.Pair {
	if s.done < s.limit {
		s.done++
		return s.first.Next()
	}
	return s.second.Next()
}
