package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Config is a configuration of the system: the vector of mobile-agent
// states, plus the leader state when the protocol has a leader (nil
// otherwise). A Config is mutable; use Clone before sharing.
type Config struct {
	Mobile []State
	Leader LeaderState
}

// NewConfig returns a configuration of n mobile agents all in state s,
// with no leader.
func NewConfig(n int, s State) *Config {
	c := new(Config)
	c.Reset(n, s)
	return c
}

// Reset makes c the configuration NewConfig(n, s) returns, reusing its
// agent array when that holds n agents.
func (c *Config) Reset(n int, s State) {
	c.Mobile = slices.Grow(c.Mobile[:0], n)[:n]
	for i := range c.Mobile {
		c.Mobile[i] = s
	}
	c.Leader = nil
}

// NewConfigStates returns a configuration with the given mobile states
// (copied) and no leader.
func NewConfigStates(states ...State) *Config {
	m := make([]State, len(states))
	copy(m, states)
	return &Config{Mobile: m}
}

// WithLeader sets the leader state and returns the same configuration,
// for fluent construction.
func (c *Config) WithLeader(l LeaderState) *Config {
	c.Leader = l
	return c
}

// N returns the number of mobile agents.
func (c *Config) N() int { return len(c.Mobile) }

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	m := make([]State, len(c.Mobile))
	copy(m, c.Mobile)
	var l LeaderState
	if c.Leader != nil {
		l = c.Leader.Clone()
	}
	return &Config{Mobile: m, Leader: l}
}

// Equal reports whether two configurations are identical agent by agent
// (identity-preserving equality, not multiset equivalence).
func (c *Config) Equal(o *Config) bool {
	if c.N() != o.N() {
		return false
	}
	for i, s := range c.Mobile {
		if o.Mobile[i] != s {
			return false
		}
	}
	switch {
	case c.Leader == nil && o.Leader == nil:
		return true
	case c.Leader == nil || o.Leader == nil:
		return false
	default:
		return c.Leader.Equal(o.Leader)
	}
}

// Key returns a canonical identity-preserving encoding of the
// configuration, suitable as a map key during model checking.
func (c *Config) Key() string {
	return string(c.AppendKey(make([]byte, 0, c.keyCap())))
}

// AppendKey appends Key's encoding to buf and returns the extended
// slice. The model checker's dedup loop uses it with a reused scratch
// buffer so each interned configuration costs a single allocation (the
// map-key string itself).
func (c *Config) AppendKey(buf []byte) []byte {
	for i, s := range c.Mobile {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(s), 10)
	}
	return c.appendLeaderKey(buf)
}

// MultisetKey returns a canonical encoding that forgets agent identities:
// two configurations that are permutations of one another (the paper's
// "equivalent configurations") share a MultisetKey.
func (c *Config) MultisetKey() string {
	return string(c.AppendMultisetKey(make([]byte, 0, c.keyCap())))
}

// maxCountingState bounds the counting-sort domain of AppendMultisetKey;
// protocol states live in [0, |Q|) with |Q| ≈ P+1, far below it.
const maxCountingState = 1 << 16

// stackCountingStates is the counting-sort domain AppendMultisetKey
// counts on the stack, the compiled-table state cap: below it a key
// allocates nothing but buf's growth.
const stackCountingStates = 1024

// AppendMultisetKey appends MultisetKey's encoding to buf and returns
// the extended slice. States lie in [0, |Q|), so the sort.Slice of the
// original implementation is replaced by a counting sort: one pass to
// count occupancies, then emission in increasing state order.
func (c *Config) AppendMultisetKey(buf []byte) []byte {
	max := State(-1)
	countable := true
	for _, s := range c.Mobile {
		if s < 0 || s > maxCountingState {
			countable = false
			break
		}
		if s > max {
			max = s
		}
	}
	if !countable {
		// Out-of-domain states (never produced by valid protocols):
		// fall back to comparison sorting.
		sorted := make([]State, len(c.Mobile))
		copy(sorted, c.Mobile)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, s := range sorted {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(s), 10)
		}
		return c.appendLeaderKey(buf)
	}
	var stack [stackCountingStates]int32
	var counts []int32
	if int(max) < stackCountingStates {
		counts = stack[:int(max)+1]
	} else {
		counts = make([]int32, int(max)+1)
	}
	for _, s := range c.Mobile {
		counts[s]++
	}
	first := true
	for s, cnt := range counts {
		for ; cnt > 0; cnt-- {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = strconv.AppendInt(buf, int64(s), 10)
		}
	}
	return c.appendLeaderKey(buf)
}

func (c *Config) appendLeaderKey(buf []byte) []byte {
	if c.Leader != nil {
		buf = append(buf, '|')
		buf = c.Leader.AppendKey(buf)
	}
	return buf
}

// keyCap estimates the encoded key length (4 bytes per agent covers
// states up to 999 plus the separator).
func (c *Config) keyCap() int { return 4*len(c.Mobile) + 16 }

// Count returns how many mobile agents are in state s.
func (c *Config) Count(s State) int {
	n := 0
	for _, t := range c.Mobile {
		if t == s {
			n++
		}
	}
	return n
}

// Homonyms returns, for each state held by at least two mobile agents,
// the indices of the agents holding it.
func (c *Config) Homonyms() map[State][]int {
	byState := make(map[State][]int)
	for i, s := range c.Mobile {
		byState[s] = append(byState[s], i)
	}
	for s, idx := range byState {
		if len(idx) < 2 {
			delete(byState, s)
		}
	}
	return byState
}

// HasHomonyms reports whether two mobile agents share a state.
func (c *Config) HasHomonyms() bool {
	seen := make(map[State]bool, len(c.Mobile))
	for _, s := range c.Mobile {
		if seen[s] {
			return true
		}
		seen[s] = true
	}
	return false
}

// ValidNaming reports whether the configuration solves the naming
// predicate: all mobile agents hold pairwise-distinct states.
func (c *Config) ValidNaming() bool { return !c.HasHomonyms() }

func (c *Config) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range c.Mobile {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	if c.Leader != nil {
		fmt.Fprintf(&b, " | %s", c.Leader)
	}
	b.WriteByte(']')
	return b.String()
}

// ApplyMobile executes the mobile-mobile transition between agents i
// (initiator) and j (responder), mutating c. It reports whether the
// transition was non-null. It panics on out-of-range or equal indices.
func ApplyMobile(p Protocol, c *Config, i, j int) bool {
	if i == j {
		panic("core: agent cannot interact with itself")
	}
	x, y := c.Mobile[i], c.Mobile[j]
	x2, y2 := p.Mobile(x, y)
	c.Mobile[i], c.Mobile[j] = x2, y2
	return x2 != x || y2 != y
}

// ApplyLeader executes the leader-mobile transition between the leader
// and mobile agent j, mutating c. It reports whether the transition was
// non-null.
func ApplyLeader(lp LeaderProtocol, c *Config, j int) bool {
	x := c.Mobile[j]
	l2, x2 := lp.LeaderInteract(c.Leader, x)
	changed := x2 != x || !l2.Equal(c.Leader)
	c.Leader = l2
	c.Mobile[j] = x2
	return changed
}

// ApplyPair executes the transition for an arbitrary scheduler pair,
// dispatching to ApplyMobile or ApplyLeader. It reports whether the
// transition was non-null.
func ApplyPair(p Protocol, c *Config, pair Pair) bool {
	if pair.HasLeader() {
		lp, ok := p.(LeaderProtocol)
		if !ok {
			panic(fmt.Sprintf("core: protocol %q has no leader but pair %v involves one", p.Name(), pair))
		}
		return ApplyLeader(lp, c, pair.MobilePeer())
	}
	return ApplyMobile(p, c, pair.A, pair.B)
}

// Silent reports whether the configuration is terminal: every possible
// interaction (ordered mobile pairs, and leader-mobile pairs when the
// protocol has a leader) is a null transition. All protocols in the paper
// converge to silent configurations, so silence is the convergence test
// used by the simulator.
func Silent(p Protocol, c *Config) bool {
	n := c.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if !IsNullMobile(p, c.Mobile[i], c.Mobile[j]) {
				return false
			}
		}
	}
	if lp, ok := p.(LeaderProtocol); ok {
		for j := 0; j < n; j++ {
			if !IsNullLeader(lp, c.Leader, c.Mobile[j]) {
				return false
			}
		}
	}
	return true
}
