package core

import (
	"fmt"
	"math/rand"
)

// Protocol is a deterministic population protocol over mobile agents.
//
// Mobile must be a pure function: it may not retain or mutate anything,
// and calling it twice with the same arguments must return the same
// result (determinism of the transition relation). All inputs and outputs
// lie in [0, States()).
type Protocol interface {
	// Name returns a short human-readable protocol identifier.
	Name() string
	// P returns the known upper bound on the population size the
	// protocol instance was constructed for.
	P() int
	// States returns the number of states per mobile agent, |Q|.
	// Space optimality in the paper is measured in this quantity.
	States() int
	// Symmetric reports whether every mobile-mobile rule is symmetric:
	// (p,q) -> (p',q') implies (q,p) -> (q',p'). The claim is checked by
	// CheckProtocol in tests.
	Symmetric() bool
	// Mobile computes the transition applied when mobile agent in state
	// x (initiator) meets mobile agent in state y (responder).
	Mobile(x, y State) (State, State)
}

// LeaderState is the state of the distinguished leader agent. The paper
// places no bound on its size, so each protocol supplies its own concrete
// type. Implementations must be immutable value types: methods never
// mutate the receiver, and Clone returns an independent copy.
type LeaderState interface {
	// Clone returns a deep copy.
	Clone() LeaderState
	// Equal reports semantic equality with another leader state of the
	// same dynamic type. Equal(nil) must return false.
	Equal(LeaderState) bool
	// AppendKey appends a canonical encoding, used to deduplicate
	// configurations during model checking, to buf and returns the
	// extended slice. Two states are Equal iff their encodings match.
	AppendKey(buf []byte) []byte

	fmt.Stringer
}

// LeaderProtocol is a Protocol in which a unique leader participates in
// interactions. LeaderInteract must be pure: it returns the successor
// leader state and the successor state of the mobile agent without
// mutating its arguments.
type LeaderProtocol interface {
	Protocol
	// InitLeader returns the well-initialized leader state, as specified
	// by the protocol (for example all counters zero).
	InitLeader() LeaderState
	// LeaderInteract computes the transition applied when the leader in
	// state l meets a mobile agent in state x.
	LeaderInteract(l LeaderState, x State) (LeaderState, State)
}

// ArbitraryLeaderProtocol is implemented by self-stabilizing protocols
// whose correctness does not depend on the leader's initial state
// (Proposition 16). RandomLeader draws an arbitrary reachable-or-not
// leader state for adversarial initialization experiments.
type ArbitraryLeaderProtocol interface {
	LeaderProtocol
	RandomLeader(r *rand.Rand) LeaderState
}

// UniformInitProtocol is implemented by protocols whose correctness
// assumes a uniform initialization of the mobile agents (Proposition 14).
// InitMobile returns the common initial state.
type UniformInitProtocol interface {
	Protocol
	InitMobile() State
}

// ArbitraryInitProtocol is implemented by protocols that tolerate
// arbitrary initialization of mobile agents. RandomMobile draws one
// arbitrary state from the protocol's state space.
type ArbitraryInitProtocol interface {
	Protocol
	RandomMobile(r *rand.Rand) State
}

// HasLeader reports whether the protocol uses a leader.
func HasLeader(p Protocol) bool {
	_, ok := p.(LeaderProtocol)
	return ok
}

// IsNullMobile reports whether the mobile-mobile transition from (x, y)
// leaves both states unchanged.
func IsNullMobile(p Protocol, x, y State) bool {
	x2, y2 := p.Mobile(x, y)
	return x2 == x && y2 == y
}

// IsNullLeader reports whether the leader-mobile transition from (l, x)
// leaves both states unchanged.
func IsNullLeader(lp LeaderProtocol, l LeaderState, x State) bool {
	l2, x2 := lp.LeaderInteract(l, x)
	return x2 == x && l2.Equal(l)
}
