package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
)

// allProtocols returns one instance of every protocol in the package,
// for cross-cutting structural tests.
func allProtocols(p int) []core.Protocol {
	return []core.Protocol{
		NewAsymmetric(p),
		NewSymGlobal(p),
		NewInitLeader(p),
		NewSelfStab(p),
		NewGlobalP(p),
	}
}

func TestAllProtocolsWellFormed(t *testing.T) {
	for p := 2; p <= 8; p++ {
		for _, pr := range allProtocols(p) {
			if err := core.CheckProtocol(pr); err != nil {
				t.Errorf("P=%d %s: %v", p, pr.Name(), err)
			}
			if pr.P() != p {
				t.Errorf("%s: P() = %d, want %d", pr.Name(), pr.P(), p)
			}
		}
	}
}

// TestStateCountsMatchTable1 pins the exact space complexity of each
// protocol to its Table 1 cell.
func TestStateCountsMatchTable1(t *testing.T) {
	const p = 7
	cases := []struct {
		proto core.Protocol
		want  int
	}{
		{NewAsymmetric(p), p},    // asymmetric rules: P states
		{NewSymGlobal(p), p + 1}, // no leader, global fairness: P+1
		{NewInitLeader(p), p},    // initialized leader + uniform init: P
		{NewSelfStab(p), p + 1},  // non-initialized leader, weak fairness: P+1
		{NewGlobalP(p), p},       // initialized leader, global fairness: P
	}
	for _, c := range cases {
		if got := c.proto.States(); got != c.want {
			t.Errorf("%s: States() = %d, want %d", c.proto.Name(), got, c.want)
		}
	}
}

// TestSymmetryClaimsMatchTable1 pins the symmetry of each protocol.
func TestSymmetryClaimsMatchTable1(t *testing.T) {
	const p = 5
	if NewAsymmetric(p).Symmetric() {
		t.Error("Proposition 12 protocol must be asymmetric for P >= 2")
	}
	for _, pr := range []core.Protocol{NewSymGlobal(p), NewInitLeader(p), NewSelfStab(p), NewGlobalP(p)} {
		if !pr.Symmetric() {
			t.Errorf("%s must be symmetric", pr.Name())
		}
	}
}

// TestLeaderPresenceMatchesTable1 pins which protocols use a leader.
func TestLeaderPresenceMatchesTable1(t *testing.T) {
	const p = 4
	if core.HasLeader(NewAsymmetric(p)) || core.HasLeader(NewSymGlobal(p)) {
		t.Error("leaderless protocols report a leader")
	}
	for _, pr := range []core.Protocol{NewInitLeader(p), NewSelfStab(p), NewGlobalP(p)} {
		if !core.HasLeader(pr) {
			t.Errorf("%s must have a leader", pr.Name())
		}
	}
}

func TestConstructorsRejectTinyBounds(t *testing.T) {
	ctors := []func(){
		func() { NewAsymmetric(0) },
		func() { NewSymGlobal(1) },
		func() { NewInitLeader(1) },
		func() { NewSelfStab(1) },
		func() { NewGlobalP(1) },
	}
	for i, ctor := range ctors {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor %d did not panic on tiny bound", i)
				}
			}()
			ctor()
		}()
	}
}

// TestNullLeaderStepAllocs pins that a null leader step — the leader
// meeting an agent it already named — hands back the incoming leader
// state instead of boxing a fresh copy, so it does not allocate. Most
// leader steps of a converging run are null.
func TestNullLeaderStepAllocs(t *testing.T) {
	const p = 6
	cases := []struct {
		proto  core.LeaderProtocol
		leader core.LeaderState
		named  core.State
	}{
		{NewSelfStab(p), ResetBST{N: 3, K: 5}, 2},
		{NewNoReset(p), ResetBST{N: 3, K: 5}, 2},
		{NewInitLeader(p), Counter{C: 2}, 0},
		{NewGlobalP(p), PtrBST{N: 3, K: 5}, 2},
		{counting.New(p), counting.BST{N: 3, K: 5}, 2},
		{counting.NewNaive(p), counting.BST{N: 3, K: 3}, 2},
	}
	for _, c := range cases {
		t.Run(c.proto.Name(), func(t *testing.T) {
			if !core.IsNullLeader(c.proto, c.leader, c.named) {
				t.Fatalf("(%v, %d) is not a null leader step", c.leader, c.named)
			}
			var l2 core.LeaderState
			allocs := testing.AllocsPerRun(100, func() {
				l2, _ = c.proto.LeaderInteract(c.leader, c.named)
			})
			if allocs != 0 {
				t.Errorf("null leader step allocates %v times, want 0", allocs)
			}
			if !l2.Equal(c.leader) {
				t.Errorf("leader %v became %v", c.leader, l2)
			}
		})
	}
}
