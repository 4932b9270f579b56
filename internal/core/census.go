package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// Census tracks, for one evolving configuration, the number of mobile
// agents per state plus an activePairs counter: the number of ordered
// state pairs (x, y) that are both schedulable (x and y occupied; two
// agents needed when x == y) and non-null under the compiled table.
//
// The mobile side of the silence test then collapses to activePairs ==
// 0, an O(1) counter check instead of an O(n²) scan over agent pairs
// with an interface call each. Per applied transition the counts update
// in O(1); the activePairs counter is touched only when a state's
// occupancy crosses the 0↔1 or 1↔2 boundary. The census keeps an
// occupancy bitset beside the counts, so a 0↔1 crossing costs two
// popcounts per word of ⌈|Q|/64⌉ — the state's non-null row and column
// (Compiled.row, Compiled.col) masked by the occupied states — and a
// 1↔2 crossing one bit test of the diagonal.
//
// A Census belongs to one runner; it is not safe for concurrent use.
type Census struct {
	tab    *Compiled
	counts []int
	occ    []uint64 // bit s set iff counts[s] > 0
	active int
}

// NewCensus builds the census of cfg's mobile states against a compiled
// table. It rejects configurations holding states outside [0, |Q|).
func NewCensus(tab *Compiled, cfg *Config) (*Census, error) {
	cs := new(Census)
	if err := cs.Reset(tab, cfg); err != nil {
		return nil, err
	}
	return cs, nil
}

// Reset makes cs the census NewCensus(tab, cfg) returns, reusing its
// occupancy vector and bitset, and reports the same error (leaving cs
// unusable until the next Reset).
func (cs *Census) Reset(tab *Compiled, cfg *Config) error {
	q := tab.States()
	cs.tab = tab
	cs.counts = slices.Grow(cs.counts[:0], q)[:q]
	cs.occ = slices.Grow(cs.occ[:0], tab.w)[:tab.w]
	return cs.Resync(cfg)
}

// NewCensusCounts builds a census directly over an occupancy vector,
// sharing the slice: every Apply/ApplyOne flows back into counts, so a
// CountConfig and its census stay in lockstep without copying, and no
// agent array is materialized. The count engine's tests hold its
// weight-based silence test (W = 0) to this census's Silent.
// len(counts) must equal tab.States() and counts must be non-negative.
func NewCensusCounts(tab *Compiled, counts []int) (*Census, error) {
	if len(counts) != tab.States() {
		return nil, fmt.Errorf("core: census: counts length %d != states %d", len(counts), tab.States())
	}
	for s, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: census: negative count %d for state %d", c, s)
		}
	}
	cs := &Census{tab: tab, counts: counts, occ: make([]uint64, tab.w)}
	cs.recount()
	return cs, nil
}

// recount rebuilds the occupancy bitset from the counts and recomputes
// activePairs from scratch: one masked popcount of each occupied
// state's non-null row, less its diagonal where it holds one agent.
func (cs *Census) recount() {
	clear(cs.occ)
	for s, c := range cs.counts {
		if c > 0 {
			cs.occ[s>>6] |= 1 << (s & 63)
		}
	}
	active := 0
	for x, cx := range cs.counts {
		if cx == 0 {
			continue
		}
		active += cs.pairs(cs.tab.row(State(x)))
		if cx < 2 && !cs.tab.Null(State(x), State(x)) {
			active--
		}
	}
	cs.active = active
}

// pairs counts the occupied states in a row or column bitset.
func (cs *Census) pairs(set []uint64) int {
	occ := cs.occ
	set = set[:len(occ)]
	n := 0
	for k, o := range occ {
		n += bits.OnesCount64(set[k] & o)
	}
	return n
}

// Resync rebuilds the census from cfg after an external mutation (for
// example a mid-run fault injection that rewrote agent states). The
// incremental counts only stay truthful while every change flows
// through Apply/ApplyOne; anything that writes cfg.Mobile directly must
// Resync before the next silence test. It rejects configurations
// holding states outside [0, |Q|), leaving the census unchanged.
func (cs *Census) Resync(cfg *Config) error {
	q := cs.tab.States()
	for i, s := range cfg.Mobile {
		if s < 0 || int(s) >= q {
			return fmt.Errorf("core: census: agent %d holds state %d outside [0,%d)", i, s, q)
		}
	}
	clear(cs.counts)
	for _, s := range cfg.Mobile {
		cs.counts[s]++
	}
	cs.recount()
	return nil
}

// Count returns the number of agents in state s.
func (cs *Census) Count(s State) int { return cs.counts[int(s)] }

// ActivePairs returns the current non-null schedulable-pair count.
func (cs *Census) ActivePairs() int { return cs.active }

// MobileSilent reports whether no mobile-mobile interaction can change
// the configuration — the O(1) counter test.
func (cs *Census) MobileSilent() bool { return cs.active == 0 }

// Apply updates the census for one applied mobile-mobile transition
// (x, y) -> (x2, y2). Call it only for non-null transitions.
func (cs *Census) Apply(x, y, x2, y2 State) {
	cs.remove(x)
	cs.remove(y)
	cs.add(x2)
	cs.add(y2)
}

// ApplyOne updates the census for a mobile agent moved x -> x2 by a
// leader interaction. Call it only when x2 != x.
func (cs *Census) ApplyOne(x, x2 State) {
	cs.remove(x)
	cs.add(x2)
}

func (cs *Census) add(s State) {
	i := int(s)
	cs.counts[i]++
	switch cs.counts[i] {
	case 1:
		// s became occupied: pairs (s, y) and (y, s) against every other
		// occupied state become schedulable. s's own bit is still clear,
		// so the diagonal is left out.
		cs.active += cs.pairs(cs.tab.row(s)) + cs.pairs(cs.tab.col(s))
		cs.occ[i>>6] |= 1 << (i & 63)
	case 2:
		// The diagonal pair (s, s) needs two agents.
		if !cs.tab.Null(s, s) {
			cs.active++
		}
	}
}

func (cs *Census) remove(s State) {
	i := int(s)
	switch cs.counts[i] {
	case 0:
		panic(fmt.Sprintf("core: census underflow for state %d", s))
	case 1:
		cs.occ[i>>6] &^= 1 << (i & 63)
		cs.active -= cs.pairs(cs.tab.row(s)) + cs.pairs(cs.tab.col(s))
	case 2:
		if !cs.tab.Null(s, s) {
			cs.active--
		}
	}
	cs.counts[i]--
}

// LeaderSilent reports whether every leader-mobile interaction from
// leader state l is null, scanning only the ≤ |Q| occupied states
// instead of all n agents.
func (cs *Census) LeaderSilent(l LeaderState) bool {
	lp := cs.tab.lp
	if lp == nil {
		return true
	}
	for s, c := range cs.counts {
		if c == 0 {
			continue
		}
		if !IsNullLeader(lp, l, State(s)) {
			return false
		}
	}
	return true
}

// Silent is the full incremental silence test: no schedulable mobile
// pair is non-null (O(1)) and, when the protocol has a leader, every
// occupied state is null against the given leader state.
func (cs *Census) Silent(l LeaderState) bool {
	return cs.active == 0 && cs.LeaderSilent(l)
}
