// Package counting implements Protocol 1 of Beauquier, Burman, Clavière
// and Sohier, "Space-optimal counting in population protocols" (DISC
// 2015), as reproduced in the naming paper: a symmetric protocol in which
// an initialized leader (the base station, BST) counts up to P
// arbitrarily initialized mobile agents under weak fairness, using P
// states per mobile agent. As a by-product (Theorem 15 of the naming
// paper) it assigns distinct names to the mobile agents whenever N < P.
//
// Mobile states are [0, P): state 0 is the homonym sink ("unnamed"),
// states 1..P-1 are names drawn from the sequence U* = U_{P-1}
// (see internal/seq). The BST keeps a population-size guess n and a
// pointer k into U*; it revises the guess upward whenever the pointer
// walks past the length l_n = 2^n - 1 of U_n.
package counting

import (
	"fmt"
	"math/rand"
	"strconv"

	"popnaming/internal/core"
	"popnaming/internal/seq"
)

// BST is the leader (base station) state of Protocol 1: the current
// population-size guess N and the U* pointer K.
type BST struct {
	N int // population-size guess, in [0, P]
	K int // pointer into U*, in [0, 2^(P-1)]
}

// Clone implements core.LeaderState.
func (b BST) Clone() core.LeaderState { return b }

// Equal implements core.LeaderState.
func (b BST) Equal(o core.LeaderState) bool {
	ob, ok := o.(BST)
	return ok && ob == b
}

// AppendKey implements core.LeaderState: "n=<N>;k=<K>".
func (b BST) AppendKey(buf []byte) []byte {
	buf = strconv.AppendInt(append(buf, "n="...), int64(b.N), 10)
	return strconv.AppendInt(append(buf, ";k="...), int64(b.K), 10)
}

func (b BST) String() string { return fmt.Sprintf("BST{n:%d k:%d}", b.N, b.K) }

// Protocol1 is the counting protocol. It implements core.LeaderProtocol.
type Protocol1 struct {
	p int
}

// New returns Protocol 1 for population bound p >= 2.
func New(p int) *Protocol1 {
	if p < 2 {
		panic(fmt.Sprintf("counting: bound P must be >= 2, got %d", p))
	}
	return &Protocol1{p: p}
}

// Name implements core.Protocol.
func (pr *Protocol1) Name() string { return "protocol1-counting" }

// P implements core.Protocol.
func (pr *Protocol1) P() int { return pr.p }

// States implements core.Protocol. Mobile agents use P states, 0..P-1.
func (pr *Protocol1) States() int { return pr.p }

// Symmetric implements core.Protocol.
func (pr *Protocol1) Symmetric() bool { return true }

// Mobile implements core.Protocol: interacting homonyms reset to the
// sink state 0; all other mobile-mobile interactions are null.
func (pr *Protocol1) Mobile(x, y core.State) (core.State, core.State) {
	return HomonymRule(x, y)
}

// initBST is BST{}, boxed once, so InitLeader allocates nothing.
var initBST core.LeaderState = BST{}

// InitLeader implements core.LeaderProtocol: the BST starts with both
// counters at zero. Protocol 1 requires this initialization (the mobile
// agents may start arbitrarily).
func (pr *Protocol1) InitLeader() core.LeaderState { return initBST }

// bstBoxes holds Protocol 1's leader states, boxed once per process.
var bstBoxes = NewLeaderBoxes(func(n, k int) core.LeaderState { return BST{N: n, K: k} })

// LeaderInteract implements core.LeaderProtocol: lines 1-9 of Protocol 1.
func (pr *Protocol1) LeaderInteract(l core.LeaderState, x core.State) (core.LeaderState, core.State) {
	b := l.(BST)
	n2, k2, x2 := CountingStep(b.N, b.K, x, pr.p, pr.p-1)
	if n2 == b.N && k2 == b.K {
		return l, x2 // unchanged leader: l, not a fresh BST, which would box a copy
	}
	return bstBoxes.Box(pr.p-1, n2, k2), x2
}

// Count extracts the BST's current population-size estimate.
func (pr *Protocol1) Count(c *core.Config) int { return c.Leader.(BST).N }

// RandomMobile returns an arbitrary mobile state, for adversarial
// initialization experiments.
func (pr *Protocol1) RandomMobile(r *rand.Rand) core.State {
	return core.State(r.Intn(pr.p))
}

// HomonymRule is the shared symmetric mobile-mobile rule of Protocols
// 1-3: two agents holding the same state move to the sink state 0;
// everything else is null.
func HomonymRule(x, y core.State) (core.State, core.State) {
	if x == y {
		return 0, 0
	}
	return x, y
}

// CountingStep executes the BST update of Protocol 1 (lines 2-9) and its
// derivatives, parameterized so Protocols 2 and 3 can reuse it:
//
//	nLimit  — the guard bound: the block fires only when n < nLimit
//	          (P for Protocols 1 and 3, P+1 for Protocol 2);
//	maxName — the largest assignable name (P-1 for Protocols 1 and 3
//	          whose U* = U_{P-1}, P for Protocol 2 whose U* = U_P).
//
// It returns the successor (n, k, mobile state). The pointer k is capped
// at 2^maxName = l_maxName + 1, matching the declared variable domain in
// the paper ("k: [0, ..., 2^P]" in Protocol 2); the cap value is the
// overflow sentinel that forces the guess n past maxName.
//
// When the pointer overflows the finite sequence U_maxName — which
// happens exactly in the interaction where n reaches its cap and the
// protocol switches from "naming" to "population is full" — U*(k) is
// outside the mobile state space. The paper leaves this assignment
// implicit; we keep the agent in the sink state 0, which is the unique
// in-range choice that preserves the protocols' correctness arguments
// (the agent remains "unnamed" and, in Protocol 2, keeps triggering the
// reset line, while in Protocols 1 and 3 the n < nLimit guard is closed
// forever after).
func CountingStep(n, k int, x core.State, nLimit, maxName int) (int, int, core.State) {
	if n >= nLimit || (x != 0 && int(x) <= n) {
		return n, k, x // guard of line 2 fails: null transition
	}
	kCap := seq.Len(maxName) + 1 // 2^maxName
	if x == 0 {
		k++ // line 4: advance the pointer
		if k > kCap {
			k = kCap
		}
	} else { // x > n
		k = seq.Len(n) + 1 // line 6: population must exceed n
	}
	if k > seq.Len(n) { // line 7
		n++ // line 8
	}
	if name := seq.At(k); name <= maxName { // line 9
		x = core.State(name)
	} else {
		x = 0 // pointer overflow: stay in the sink (see doc comment)
	}
	return n, k, x
}
