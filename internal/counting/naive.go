package counting

import (
	"fmt"

	"popnaming/internal/core"
)

// NaiveVariant is an ablation of Protocol 1 for the U* experiment: the
// recursively structured naming sequence U* is replaced by the obvious
// cyclic sequence 1, 2, ..., P-1, 1, 2, ... and the guess threshold
// l_n = 2^n - 1 by l_n = n ("bump the guess after naming n agents").
// This is the natural first attempt at leader-driven counting — and it
// is wrong: with adversarially initialized mobile agents the BST cannot
// distinguish names it assigned from names the adversary planted, and
// the guess overshoots the true population size (see the ablation tests
// and the E14 experiment). The self-similar structure of U* is exactly
// what rules such executions out.
type NaiveVariant struct {
	p int
}

// NewNaive returns the ablated protocol for bound p >= 2.
func NewNaive(p int) *NaiveVariant {
	if p < 2 {
		panic(fmt.Sprintf("counting: bound P must be >= 2, got %d", p))
	}
	return &NaiveVariant{p: p}
}

// Name implements core.Protocol.
func (pr *NaiveVariant) Name() string { return "counting-naive-ablation" }

// P implements core.Protocol.
func (pr *NaiveVariant) P() int { return pr.p }

// States implements core.Protocol.
func (pr *NaiveVariant) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *NaiveVariant) Symmetric() bool { return true }

// Mobile implements core.Protocol.
func (pr *NaiveVariant) Mobile(x, y core.State) (core.State, core.State) {
	return HomonymRule(x, y)
}

// InitLeader implements core.LeaderProtocol.
func (pr *NaiveVariant) InitLeader() core.LeaderState { return BST{} }

// Count extracts the BST's population-size estimate.
func (pr *NaiveVariant) Count(c *core.Config) int { return c.Leader.(BST).N }

// LeaderInteract implements core.LeaderProtocol: Protocol 1's update
// with the cyclic sequence and the linear threshold.
func (pr *NaiveVariant) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	b := l.(BST)
	if b.N >= pr.p || (x != 0 && int(x) <= b.N) {
		return l, x // null: l, not b, which would box a fresh copy
	}
	if x == 0 {
		b.K++
	} else {
		b.K = b.N + 1
	}
	if b.K > b.N {
		b.N++
	}
	name := (b.K-1)%(pr.p-1) + 1
	return b, core.State(name)
}
