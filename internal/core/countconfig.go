package core

import (
	"fmt"
	"slices"
	"strings"
)

// MaxCountN is the largest leaderless population the count-based engine
// accepts. The bound is exactly where pair-weight arithmetic stays
// inside uint64: the total ordered-pair weight of a configuration is
// N·(N−1) (every ordered pair of distinct agents), which at N = 2³²
// evaluates to 2⁶⁴−2³² — the last value below the uint64 wrap. With a
// leader the total is N·(N+1), so the bound drops by one; see
// TotalPairWeight, which checks the limit explicitly instead of
// wrapping silently.
const MaxCountN = 1 << 32

// CountConfig is a configuration described by per-state occupancy
// alone: Counts[s] agents hold state s, and nobody holds an identity.
// Under the uniform-random scheduler the per-state counts are a
// sufficient statistic for the whole process, which is what lets the
// count-based engine simulate populations of 10⁶–10⁹ agents with
// per-interaction cost independent of N (see sim.CountRunner).
//
// A CountConfig is mutable; the count engine mutates Counts in place.
type CountConfig struct {
	// Counts is the occupancy vector, indexed by state; len(Counts)
	// must equal the protocol's States().
	Counts []int
	// Leader is the leader state when the protocol has a leader (nil
	// otherwise). Leader agents are counted separately from Counts.
	Leader LeaderState
}

// NewCountConfig returns an empty occupancy vector over q states.
func NewCountConfig(q int) *CountConfig {
	cc := new(CountConfig)
	cc.Reset(q)
	return cc
}

// Reset makes cc the configuration NewCountConfig(q) returns, reusing
// its occupancy vector when that holds q states.
func (cc *CountConfig) Reset(q int) {
	cc.Counts = slices.Grow(cc.Counts[:0], q)[:q]
	clear(cc.Counts)
	cc.Leader = nil
}

// CountsOf folds an agent-array configuration into its occupancy
// vector (forgetting identities), rejecting states outside [0, q). The
// leader state is aliased, not cloned.
func CountsOf(cfg *Config, q int) (*CountConfig, error) {
	cc := NewCountConfig(q)
	for i, s := range cfg.Mobile {
		if s < 0 || int(s) >= q {
			return nil, fmt.Errorf("core: count config: agent %d holds state %d outside [0,%d)", i, s, q)
		}
		cc.Counts[s]++
	}
	cc.Leader = cfg.Leader
	return cc, nil
}

// Config expands the occupancy vector back into an agent-array
// configuration (agents emitted in increasing state order). It is meant
// for tests and small-N interop, not for giant populations.
func (cc *CountConfig) Config() *Config {
	m := make([]State, 0, cc.N())
	for s, c := range cc.Counts {
		for ; c > 0; c-- {
			m = append(m, State(s))
		}
	}
	return &Config{Mobile: m, Leader: cc.Leader}
}

// N returns the population size (the sum of all counts).
func (cc *CountConfig) N() int {
	n := 0
	for _, c := range cc.Counts {
		n += c
	}
	return n
}

// Count returns the number of agents in state s.
func (cc *CountConfig) Count(s State) int { return cc.Counts[int(s)] }

// Clone returns a deep copy.
func (cc *CountConfig) Clone() *CountConfig {
	counts := make([]int, len(cc.Counts))
	copy(counts, cc.Counts)
	var l LeaderState
	if cc.Leader != nil {
		l = cc.Leader.Clone()
	}
	return &CountConfig{Counts: counts, Leader: l}
}

// HasHomonyms reports whether two agents share a state (some count
// exceeds one).
func (cc *CountConfig) HasHomonyms() bool {
	for _, c := range cc.Counts {
		if c > 1 {
			return true
		}
	}
	return false
}

// ValidNaming reports whether the configuration solves the naming
// predicate: every occupied state holds exactly one agent. It agrees
// with Config.ValidNaming on CountsOf of any agent configuration.
func (cc *CountConfig) ValidNaming() bool { return !cc.HasHomonyms() }

// Validate checks that the vector is non-negative and that the
// population is inside the count engine's overflow-safe bound.
func (cc *CountConfig) Validate() error {
	n := 0
	for s, c := range cc.Counts {
		if c < 0 {
			return fmt.Errorf("core: count config: negative count %d for state %d", c, s)
		}
		n += c
	}
	_, err := TotalPairWeight(n, cc.Leader != nil)
	return err
}

func (cc *CountConfig) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for s, c := range cc.Counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", s, c)
	}
	if cc.Leader != nil {
		fmt.Fprintf(&b, " | %s", cc.Leader)
	}
	b.WriteByte('}')
	return b.String()
}

// TotalPairWeight returns the total scheduler weight of a population of
// n mobile agents: N·(N−1) ordered mobile-mobile pairs, plus 2N
// leader-mobile pairs when the protocol has a leader — the denominator
// of every pair probability the count engine samples from. It fails
// with an explicit error (instead of wrapping silently) when the weight
// does not fit in uint64, which happens first at N = 2³²+1 leaderless
// and N = 2³² with a leader; see MaxCountN.
func TotalPairWeight(n int, withLeader bool) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("core: negative population %d", n)
	}
	un := uint64(n)
	limit := uint64(MaxCountN)
	if withLeader {
		// N·(N+1) must fit: the +1 entity costs one bit at the boundary.
		limit--
	}
	if un > limit {
		return 0, fmt.Errorf("core: population %d exceeds the count engine bound %d (total pair weight would overflow uint64)", n, limit)
	}
	if n == 0 {
		return 0, nil
	}
	w := un * (un - 1)
	if withLeader {
		w = un * (un + 1)
	}
	return w, nil
}
