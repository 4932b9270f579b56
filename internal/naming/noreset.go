package naming

import (
	"fmt"
	"math/rand"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/seq"
)

// NoReset is the ablation of Protocol 2 for the reset-line experiment
// (E16): identical to SelfStab except that lines 11-12 — "if the guess
// exceeded P and an unnamed agent appears, restart" — are removed. With
// a well-initialized leader it still names (it is then just Protocol 1
// with the extended sequence U_P), but it is NOT self-stabilizing: a
// corrupted leader whose guess starts past P ignores unnamed agents
// forever. This isolates the reset line as the ingredient that buys
// Proposition 16's tolerance of arbitrary leader initialization.
type NoReset struct {
	p int
}

// NewNoReset returns the ablated protocol for bound p >= 2.
func NewNoReset(p int) *NoReset {
	if p < 2 {
		panic(fmt.Sprintf("naming: bound P must be >= 2, got %d", p))
	}
	return &NoReset{p: p}
}

// Name implements core.Protocol.
func (pr *NoReset) Name() string { return "selfstab-noreset-ablation" }

// P implements core.Protocol.
func (pr *NoReset) P() int { return pr.p }

// States implements core.Protocol.
func (pr *NoReset) States() int { return pr.p + 1 }

// Symmetric implements core.Protocol.
func (pr *NoReset) Symmetric() bool { return true }

// Mobile implements core.Protocol.
func (pr *NoReset) Mobile(x, y core.State) (core.State, core.State) {
	return counting.HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol.
func (pr *NoReset) InitLeader() core.LeaderState { return initResetBST }

// RandomLeader implements core.ArbitraryLeaderProtocol (so the ablation
// experiment can draw the same adversarial leader states Protocol 2
// tolerates).
func (pr *NoReset) RandomLeader(r *rand.Rand) core.LeaderState {
	return ResetBST{
		N: r.Intn(pr.p + 2),
		K: r.Intn(seq.Len(pr.p) + 2),
	}
}

// RandomMobile returns an arbitrary mobile state in [0, P].
func (pr *NoReset) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.Intn(pr.p + 1))
}

// LeaderInteract implements core.LeaderProtocol: Protocol 2 WITHOUT the
// reset line.
func (pr *NoReset) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	b := l.(ResetBST)
	if b.N <= pr.p && (x == 0 || int(x) > b.N) {
		n2, k2, x2 := counting.CountingStep(b.N, b.K, x, pr.p+1, pr.p)
		return resetBoxes.Box(pr.p, n2, k2), x2
	}
	return l, x // null: l, not b, which would box a fresh copy
}
