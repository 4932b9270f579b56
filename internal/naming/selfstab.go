package naming

import (
	"fmt"
	"math/rand"
	"strconv"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/seq"
)

// SelfStab is Protocol 2 (Proposition 16): self-stabilizing symmetric
// naming under weak fairness with a unique non-initialized leader, using
// the optimal P+1 states per mobile agent.
//
// It extends Protocol 1 of [BBCS15] in two ways: the mobile state space
// grows to [0, P] so the naming sequence becomes U* = U_P and all P
// agents can receive distinct non-zero names; and a reset line is added
// (lines 11-12 of the paper's Protocol 2) so an arbitrarily initialized
// BST eventually restarts the naming from scratch: when the guess n has
// grown past P and the BST still meets an unnamed (state-0) agent, it
// resets n and k to 0, after which Theorem 15's correctness argument
// applies verbatim.
type SelfStab struct {
	p int
}

// ResetBST is the leader state of Protocol 2: the guess n in [0, P+1]
// and the U* pointer k in [0, 2^P].
type ResetBST struct {
	N int
	K int
}

// Clone implements core.LeaderState.
func (b ResetBST) Clone() core.LeaderState { return b }

// Equal implements core.LeaderState.
func (b ResetBST) Equal(o core.LeaderState) bool {
	ob, ok := o.(ResetBST)
	return ok && ob == b
}

// AppendKey implements core.LeaderState: "n=<N>;k=<K>".
func (b ResetBST) AppendKey(buf []byte) []byte {
	buf = strconv.AppendInt(append(buf, "n="...), int64(b.N), 10)
	return strconv.AppendInt(append(buf, ";k="...), int64(b.K), 10)
}

func (b ResetBST) String() string { return fmt.Sprintf("BST{n:%d k:%d}", b.N, b.K) }

// NewSelfStab returns Protocol 2 for bound p >= 2.
func NewSelfStab(p int) *SelfStab {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &SelfStab{p: p}
}

// Name implements core.Protocol.
func (pr *SelfStab) Name() string { return "selfstab-p16" }

// P implements core.Protocol.
func (pr *SelfStab) P() int { return pr.p }

// States implements core.Protocol: P+1 states, [0, P].
func (pr *SelfStab) States() int { return pr.p + 1 }

// Symmetric implements core.Protocol.
func (pr *SelfStab) Symmetric() bool { return true }

// Mobile implements core.Protocol: the shared homonym-to-sink rule.
func (pr *SelfStab) Mobile(x, y core.State) (core.State, core.State) {
	return counting.HomonymRule(x, y)
}

// initResetBST is ResetBST{}, boxed once: InitLeader and the reset
// line return it without allocating.
var initResetBST core.LeaderState = ResetBST{}

// InitLeader implements core.LeaderProtocol. Protocol 2 is correct from
// any leader state; the zero state is merely the canonical one.
func (pr *SelfStab) InitLeader() core.LeaderState { return initResetBST }

// RandomLeader implements core.ArbitraryLeaderProtocol: an arbitrary
// leader state within the declared variable domains n in [0, P+1],
// k in [0, 2^P].
func (pr *SelfStab) RandomLeader(r *rand.Rand) core.LeaderState {
	return ResetBST{
		N: r.Intn(pr.p + 2),
		K: r.Intn(seq.Len(pr.p) + 2), // [0, 2^P]
	}
}

// RandomMobile returns an arbitrary mobile state in [0, P].
func (pr *SelfStab) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.Intn(pr.p + 1))
}

// resetBoxes holds the ResetBST leader states of Protocol 2 and of its
// no-reset ablation, boxed once per process.
var resetBoxes = counting.NewLeaderBoxes(func(n, k int) core.LeaderState { return ResetBST{N: n, K: k} })

// LeaderInteract implements core.LeaderProtocol: Protocol 1's update with
// nLimit = P+1 and maxName = P, plus the reset line. A changed leader
// state comes pre-boxed from resetBoxes, so the step allocates nothing.
func (pr *SelfStab) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	b := l.(ResetBST)
	if b.N <= pr.p && (x == 0 || int(x) > b.N) { // line 2
		n2, k2, x2 := counting.CountingStep(b.N, b.K, x, pr.p+1, pr.p)
		return resetBoxes.Box(pr.p, n2, k2), x2
	}
	if b.N > pr.p && x == 0 { // line 11: naming failed; restart
		return initResetBST, x // line 12
	}
	return l, x // null: l, not b, which would box a fresh copy
}
