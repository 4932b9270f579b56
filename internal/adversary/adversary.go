// Package adversary provides state-aware adversarial scheduling under a
// mechanical weak-fairness guarantee. Ordinary schedulers (internal/
// sched) are blind; an Adversary sees the current configuration and
// picks the interaction it likes least for the protocol. The Scheduler
// keeps the resulting infinite execution weakly fair by construction:
// every unordered pair carries a deadline, and a pair that has waited a
// full window is scheduled by force before the adversary chooses again.
//
// This turns existence proofs into search: Theorem 11 says SOME weakly
// fair execution defeats every P-state symmetric naming protocol at
// N = P; the model checker finds such executions exactly for P <= 4, and
// the greedy adversary exhibits them empirically far beyond that (see
// the Theorem 11 scaling experiment).
package adversary

import "popnaming/internal/core"

// Adversary picks, given the current configuration, the next ordered
// pair to schedule from the offered candidates.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string
	// Pick selects one of the candidate pairs (all distinct ordered
	// pairs of the population). The slice must not be retained.
	Pick(cfg *core.Config, candidates []core.Pair) core.Pair
}

// Scheduler is a sched.Scheduler that lets an adversary choose every
// interaction while enforcing weak fairness: any unordered pair
// unscheduled for Window steps preempts the adversary's choice. It
// reads the live configuration Cfg, which the runner driving it (a
// sim.Runner over the same Cfg) mutates in place, and assumes one Next
// call per executed interaction.
type Scheduler struct {
	Cfg *core.Config
	Adv Adversary
	// Window is the fairness bound in steps (default: 8 x number of
	// unordered pairs).
	Window int

	candidates []core.Pair
	lo, m      int   // agent indices run over [lo, lo+m)
	lastSeen   []int // [(a-lo)*m + (b-lo)], a < b: step after the pair last interacted
	steps      int
	forced     int
}

// NewScheduler returns a fairness-enforcing scheduler for adv over the
// configuration cfg of protocol p.
func NewScheduler(p core.Protocol, cfg *core.Config, adv Adversary) *Scheduler {
	s := &Scheduler{Cfg: cfg, Adv: adv, m: cfg.N()}
	if core.HasLeader(p) {
		s.lo, s.m = -1, s.m+1
	}
	for a := s.lo; a < cfg.N(); a++ {
		for b := s.lo; b < cfg.N(); b++ {
			if a != b {
				s.candidates = append(s.candidates, core.Pair{A: a, B: b})
			}
		}
	}
	s.lastSeen = make([]int, s.m*s.m)
	s.Window = 8 * s.m * (s.m - 1) / 2
	return s
}

// Name implements sched.Scheduler with the adversary's name.
func (s *Scheduler) Name() string { return s.Adv.Name() }

// Forced returns how many interactions were fairness preemptions rather
// than adversary choices.
func (s *Scheduler) Forced() int { return s.forced }

// Next implements sched.Scheduler: the most overdue pair past the
// window if any, otherwise the adversary's pick.
func (s *Scheduler) Next() core.Pair {
	pair, forced := s.overdue()
	if forced {
		s.forced++
	} else {
		pair = s.Adv.Pick(s.Cfg, s.candidates)
	}
	s.steps++
	a, b := pair.A-s.lo, pair.B-s.lo
	s.lastSeen[min(a, b)*s.m+max(a, b)] = s.steps
	return pair
}

// overdue returns the unordered pair (A < B) that has waited longest,
// when that wait has reached the window. Ties go to the first pair in
// candidate order, so a seeded run is reproducible.
func (s *Scheduler) overdue() (core.Pair, bool) {
	var worst core.Pair
	worstWait := -1
	for a := 0; a < s.m; a++ {
		for b := a + 1; b < s.m; b++ {
			if wait := s.steps - s.lastSeen[a*s.m+b]; wait >= s.Window && wait > worstWait {
				worst, worstWait = core.Pair{A: a + s.lo, B: b + s.lo}, wait
			}
		}
	}
	return worst, worstWait >= 0
}

// NewGreedy returns a one-step look-ahead adversary: it applies each
// candidate pair to a scratch copy of the configuration, scores the
// successor with the given progress measure, and picks the minimum
// (breaking ties in favour of null transitions, which waste the
// protocol's steps).
func NewGreedy(p core.Protocol, label string, score func(*core.Config) float64) Adversary {
	if label == "" {
		label = "greedy"
	}
	return &lookahead{proto: p, label: label, score: score}
}

// NewGreedyNaming returns the canonical anti-naming adversary for a
// protocol: one-step look-ahead minimizing the number of distinct
// mobile states — it prefers interactions that create or preserve
// homonyms.
func NewGreedyNaming(p core.Protocol) Adversary {
	return NewGreedy(p, "greedy-adversary", func(c *core.Config) float64 {
		return float64(DistinctStates(c))
	})
}

// lookahead applies each candidate to a scratch copy and scores the
// successor.
type lookahead struct {
	proto core.Protocol
	label string
	score func(*core.Config) float64
}

// Name implements Adversary.
func (l *lookahead) Name() string { return l.label }

// Pick implements Adversary.
func (l *lookahead) Pick(cfg *core.Config, candidates []core.Pair) core.Pair {
	if len(candidates) == 0 {
		panic("adversary: no candidate pairs")
	}
	best := candidates[0]
	bestScore := 0.0
	haveBest := false
	for _, c := range candidates {
		next := cfg.Clone()
		changed := core.ApplyPair(l.proto, next, c)
		s := l.score(next)
		if !changed {
			// Null transitions are maximally unhelpful to the
			// protocol: tie-break in their favour.
			s -= 0.5
		}
		if !haveBest || s < bestScore {
			best, bestScore, haveBest = c, s, true
		}
	}
	return best
}

// DistinctStates counts distinct mobile states — the naming progress
// measure.
func DistinctStates(c *core.Config) int {
	seen := make(map[core.State]bool, len(c.Mobile))
	for _, s := range c.Mobile {
		seen[s] = true
	}
	return len(seen)
}
