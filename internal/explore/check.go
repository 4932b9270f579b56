package explore

import (
	"fmt"

	"popnaming/internal/core"
)

// Predicate is a permutation-invariant correctness predicate on terminal
// configurations, e.g. (*core.Config).ValidNaming.
type Predicate func(*core.Config) bool

// Naming is the naming-problem predicate: all mobile states distinct.
func Naming(c *core.Config) bool { return c.ValidNaming() }

// Verdict is the outcome of a convergence check.
type Verdict struct {
	// OK reports whether the protocol provably converges (to a silent
	// configuration satisfying the predicate) under the checked
	// fairness, from every explored starting configuration.
	OK bool
	// Explored is the number of reachable configurations.
	Explored int
	// BadSCC, when !OK, identifies a witnessing component: a terminal
	// (global check) or fair (weak check) SCC that is not a singleton
	// silent configuration satisfying the predicate.
	BadSCC *SCC
	// BadConfig, when !OK, is a configuration from the witnessing
	// component (for singleton components, the stuck configuration).
	BadConfig *core.Config
	// Reason describes the failure.
	Reason string
}

func (v Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("converges (explored %d configurations)", v.Explored)
	}
	return fmt.Sprintf("fails after exploring %d configurations: %s (witness %s)",
		v.Explored, v.Reason, v.BadConfig)
}

// classify checks whether an SCC is an acceptable limit of a converging
// execution: the predicate holds throughout and the mobile-state vector
// is frozen across the component (the naming problem requires the mobile
// names, not the leader's internals, to eventually stop changing). On
// canonical (multiset-quotient) graphs a component cannot distinguish
// frozen names from name swaps: a rule that only swaps two agents'
// names maps a census to itself, so even a singleton may be a live
// limit. Only a silent representative certifies frozen names there; it
// also rules out multi-member components, whose members all have a
// census-changing move. (On an identity graph a terminal singleton is
// silent.)
func (g *Graph) classify(s *SCC, accept Predicate) (ok bool, reason string, witness *core.Config) {
	first := g.Nodes[s.Members[0]]
	for _, id := range s.Members {
		c := g.Nodes[id]
		if !accept(c) {
			return false, "limit component contains a configuration violating the predicate", c
		}
		if !mobileEqual(first, c) {
			return false, fmt.Sprintf("limit component has %d configurations with differing mobile states", len(s.Members)), c
		}
	}
	if g.canonical && !core.Silent(g.Proto, first) {
		return false, fmt.Sprintf("limit component of %d censuses is not silent (canonical graph cannot certify frozen names)", len(s.Members)), first
	}
	return true, "", nil
}

// mobileEqual reports whether two configurations agree on every mobile
// agent's state.
func mobileEqual(a, b *core.Config) bool {
	for i, s := range a.Mobile {
		if b.Mobile[i] != s {
			return false
		}
	}
	return true
}

// CheckGlobal decides convergence under global fairness: every reachable
// terminal SCC must be a singleton silent configuration satisfying
// accept. This is exact: a globally fair execution eventually enters a
// terminal SCC and, if the SCC had several configurations, would revisit
// all of them forever (never stabilizing).
func (g *Graph) CheckGlobal(accept Predicate) Verdict {
	v := Verdict{OK: true, Explored: g.Size()}
	sccs := g.SCCs()
	for i := range sccs {
		s := &sccs[i]
		if !s.Terminal {
			continue
		}
		if ok, reason, witness := g.classify(s, accept); !ok {
			return Verdict{OK: false, Explored: g.Size(), BadSCC: s, BadConfig: witness,
				Reason: "terminal SCC: " + reason}
		}
	}
	return v
}

// CheckWeak decides convergence under weak fairness: every reachable
// fair SCC (one with an internal edge for every pair label) must be a
// singleton silent configuration satisfying accept. Requires an
// identity-preserving graph (Options.Canonical == false), since pair
// labels are identity-based.
func (g *Graph) CheckWeak(accept Predicate) Verdict {
	if g.canonical {
		panic("explore: CheckWeak requires an identity-preserving graph")
	}
	v := Verdict{OK: true, Explored: g.Size()}
	sccs := g.SCCs()
	for i := range sccs {
		s := &sccs[i]
		if !s.Fair() {
			continue
		}
		if ok, reason, witness := g.classify(s, accept); !ok {
			return Verdict{OK: false, Explored: g.Size(), BadSCC: s, BadConfig: witness,
				Reason: "fair SCC: " + reason}
		}
	}
	return v
}

// SilentConfigs returns the node ids of all silent reachable
// configurations.
func (g *Graph) SilentConfigs() []int {
	var out []int
	for id, c := range g.Nodes {
		if core.Silent(g.Proto, c) {
			out = append(out, id)
		}
	}
	return out
}
