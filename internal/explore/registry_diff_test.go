package explore_test

import (
	"slices"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
)

// TestRegistryParallelBuildDifferential builds the reachability graph
// of every registered protocol at several worker counts and requires
// the builds to be equal: same node ids, edges and build statistics.
// This is the end-to-end guarantee behind letting search and the CLIs
// pick any -workers value.
func TestRegistryParallelBuildDifferential(t *testing.T) {
	const p, n = 3, 3
	keys := experiments.RegistryKeys()
	if len(keys) != 8 {
		t.Fatalf("registry has %d protocols, test expects 8", len(keys))
	}
	for _, key := range keys {
		spec, err := experiments.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		proto := spec.New(p)
		var leader core.LeaderState
		if lp, ok := proto.(core.LeaderProtocol); ok {
			leader = lp.InitLeader()
		}
		assertEqualAcrossWorkers(t, key, proto, explore.AllConfigs(proto.States(), n, leader), explore.Options{})
	}
}

// TestZeroStartBuildEqualAcrossWorkers: globalp at P = N = 4 from the
// zero start is a deep graph (735 nodes over 20 levels), so most levels
// hold successors that no earlier chunk interned.
func TestZeroStartBuildEqualAcrossWorkers(t *testing.T) {
	pr := naming.NewGlobalP(4)
	start := core.NewConfig(4, 0).WithLeader(pr.InitLeader())
	g := assertEqualAcrossWorkers(t, "globalp", pr, []*core.Config{start}, explore.Options{})
	if g.Size() != 735 || g.Stats.Depth != 20 {
		t.Fatalf("globalp P=N=4: %d nodes over %d levels, want 735 over 20", g.Size(), g.Stats.Depth)
	}
}

// TestAllConfigsLeaderMinor pins the start-set order with several
// leader states (code-major, leader-minor) and the leaderless default.
func TestAllConfigsLeaderMinor(t *testing.T) {
	l0, l1 := naming.ResetBST{N: 0, K: 0}, naming.ResetBST{N: 1, K: 2}
	got := explore.AllConfigs(2, 2, l0, l1)
	want := []struct {
		mobile []core.State
		leader core.LeaderState
	}{
		{[]core.State{0, 0}, l0}, {[]core.State{0, 0}, l1},
		{[]core.State{1, 0}, l0}, {[]core.State{1, 0}, l1},
		{[]core.State{0, 1}, l0}, {[]core.State{0, 1}, l1},
		{[]core.State{1, 1}, l0}, {[]core.State{1, 1}, l1},
	}
	if len(got) != len(want) {
		t.Fatalf("AllConfigs returned %d configurations, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !slices.Equal(got[i].Mobile, w.mobile) || !got[i].Leader.Equal(w.leader) {
			t.Errorf("configuration %d = %v, want mobile %v leader %v", i, got[i], w.mobile, w.leader)
		}
	}
	if leaderless := explore.AllConfigs(2, 2); len(leaderless) != 4 || leaderless[3].Leader != nil {
		t.Fatalf("AllConfigs without leaders = %v", leaderless)
	}
}
