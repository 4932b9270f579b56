package naming

import (
	"fmt"

	"popnaming/internal/core"
)

// InitLeader is the protocol of Proposition 14: symmetric naming with an
// initialized leader and uniformly initialized mobile agents, using the
// optimal P states, correct under weak (hence also global) fairness.
//
// Mobile states are [0, P). All agents start in the reserved state P-1
// ("fresh"); the leader holds a counter initialized to 0 and assigns
// names 0, 1, 2, ... to fresh agents it meets while the counter is below
// P-1. When N = P the counter reaches P-1 and the last fresh agent keeps
// the name P-1. (The paper writes states {1..P} with fresh state P and
// counter starting at 1; this is the same protocol shifted to 0-based
// states.) All mobile-mobile interactions are null, so the protocol is
// trivially symmetric.
type InitLeader struct {
	p int
}

// Counter is the leader state of InitLeader: the next name to assign,
// in [0, P-1].
type Counter struct {
	C int
}

// Clone implements core.LeaderState.
func (c Counter) Clone() core.LeaderState { return c }

// Equal implements core.LeaderState.
func (c Counter) Equal(o core.LeaderState) bool {
	oc, ok := o.(Counter)
	return ok && oc == c
}

// Key implements core.LeaderState.
func (c Counter) Key() string { return fmt.Sprintf("c=%d", c.C) }

func (c Counter) String() string { return fmt.Sprintf("Counter{%d}", c.C) }

// NewInitLeader returns the Proposition 14 protocol for bound p >= 2.
func NewInitLeader(p int) *InitLeader {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &InitLeader{p: p}
}

// Name implements core.Protocol.
func (pr *InitLeader) Name() string { return "initleader-p14" }

// P implements core.Protocol.
func (pr *InitLeader) P() int { return pr.p }

// States implements core.Protocol.
func (pr *InitLeader) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *InitLeader) Symmetric() bool { return true }

// InitMobile returns the uniform initial mobile state P-1 ("fresh").
func (pr *InitLeader) InitMobile() core.State { return core.State(pr.p - 1) }

// Mobile implements core.Protocol: all mobile-mobile interactions are
// null.
func (pr *InitLeader) Mobile(x, y core.State) (core.State, core.State) { return x, y }

// InitLeader implements core.LeaderProtocol.
func (pr *InitLeader) InitLeader() core.LeaderState { return Counter{} }

// LeaderInteract implements core.LeaderProtocol.
func (pr *InitLeader) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	c := l.(Counter)
	if int(x) == pr.p-1 && c.C < pr.p-1 {
		named := core.State(c.C)
		return Counter{C: c.C + 1}, named
	}
	return l, x // null: l, not c, which would box a fresh copy
}
