package naming

import (
	"fmt"
	"math/rand"
	"strconv"

	"popnaming/internal/core"
	"popnaming/internal/counting"
)

// GlobalP is Protocol 3 (Proposition 17): symmetric naming with an
// initialized leader and arbitrarily initialized mobile agents under
// global fairness, using the optimal P states per mobile agent.
//
// For N < P it behaves exactly as Protocol 1 and names the agents with
// distinct states in [1, N]. The N = P case — impossible to name with P
// states under weak fairness (Theorem 11) — is handled by the name_ptr
// extension (lines 11-16): once the guess n has reached P, the BST walks
// name_ptr up through the names 0, 1, 2, ... as long as it meets agents
// carrying exactly the pointer value, and otherwise renames the met agent
// to the pointer value and restarts the walk. The walk completes
// (name_ptr = P) only when all P agents hold distinct names 0..P-1, after
// which every transition is null. Global fairness guarantees the
// completing interaction sequence eventually occurs.
type GlobalP struct {
	p int
}

// PtrBST is the leader state of Protocol 3: Protocol 1's (n, k) plus the
// naming pointer in [0, P].
type PtrBST struct {
	N       int
	K       int
	NamePtr int
}

// Clone implements core.LeaderState.
func (b PtrBST) Clone() core.LeaderState { return b }

// Equal implements core.LeaderState.
func (b PtrBST) Equal(o core.LeaderState) bool {
	ob, ok := o.(PtrBST)
	return ok && ob == b
}

// AppendKey implements core.LeaderState: "n=<N>;k=<K>;ptr=<NamePtr>".
func (b PtrBST) AppendKey(buf []byte) []byte {
	buf = strconv.AppendInt(append(buf, "n="...), int64(b.N), 10)
	buf = strconv.AppendInt(append(buf, ";k="...), int64(b.K), 10)
	return strconv.AppendInt(append(buf, ";ptr="...), int64(b.NamePtr), 10)
}

func (b PtrBST) String() string {
	return fmt.Sprintf("BST{n:%d k:%d ptr:%d}", b.N, b.K, b.NamePtr)
}

// NewGlobalP returns Protocol 3 for bound p >= 2.
func NewGlobalP(p int) *GlobalP {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &GlobalP{p: p}
}

// Name implements core.Protocol.
func (pr *GlobalP) Name() string { return "globalp-p17" }

// P implements core.Protocol.
func (pr *GlobalP) P() int { return pr.p }

// States implements core.Protocol: P states, [0, P-1].
func (pr *GlobalP) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *GlobalP) Symmetric() bool { return true }

// Mobile implements core.Protocol: the shared homonym-to-sink rule.
func (pr *GlobalP) Mobile(x, y core.State) (core.State, core.State) {
	return counting.HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol: Protocol 3 requires the
// leader initialized with all three variables at zero.
func (pr *GlobalP) InitLeader() core.LeaderState { return PtrBST{} }

// RandomMobile returns an arbitrary mobile state in [0, P-1].
func (pr *GlobalP) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.Intn(pr.p))
}

// LeaderInteract implements core.LeaderProtocol: lines 1-16 of
// Protocol 3. The counting block (lines 2-9) and the pointer block
// (lines 11-16) are sequential guarded statements, so an interaction that
// raises n to P also runs the pointer block, exactly as in the paper's
// pseudo-code.
func (pr *GlobalP) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	b := l.(PtrBST)
	orig := b
	b.N, b.K, x = counting.CountingStep(b.N, b.K, x, pr.p, pr.p-1) // lines 2-9
	if b.N == pr.p && b.NamePtr < pr.p {                           // line 11
		if int(x) == b.NamePtr { // line 12
			b.NamePtr++ // line 13
		} else {
			x = core.State(b.NamePtr) // line 15
			b.NamePtr = 0             // line 16
		}
	}
	if b == orig {
		return l, x // unchanged leader: l, not b, which would box a fresh copy
	}
	return b, x
}
