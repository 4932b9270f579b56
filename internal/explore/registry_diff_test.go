package explore_test

import (
	"slices"
	"sort"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
)

// TestRegistryParallelBuildDifferential builds the reachability graph
// of every registered protocol sequentially and with a worker pool and
// requires the results to be isomorphic: same node count, same edge
// count, and the same configuration key set. This is the end-to-end
// guarantee behind letting search and the CLIs pick any -workers value.
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
		starts := explore.AllConfigs(proto.States(), n, leader)
		seq, err := explore.Build(proto, starts, explore.Options{})
		if err != nil {
			t.Fatalf("%s: sequential build: %v", key, err)
		}
		for _, w := range []int{2, 8} {
			par, err := explore.Build(proto, starts, explore.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", key, w, err)
			}
			if par.Size() != seq.Size() {
				t.Errorf("%s workers=%d: %d nodes, sequential %d", key, w, par.Size(), seq.Size())
			}
			if par.EdgeCount() != seq.EdgeCount() {
				t.Errorf("%s workers=%d: %d edges, sequential %d", key, w, par.EdgeCount(), seq.EdgeCount())
			}
			ks, kp := nodeKeys(seq), nodeKeys(par)
			for i := range ks {
				if ks[i] != kp[i] {
					t.Errorf("%s workers=%d: key sets differ at %d: %q vs %q", key, w, i, ks[i], kp[i])
					break
				}
			}
		}
	}
}

func nodeKeys(g *explore.Graph) []string {
	out := make([]string, 0, g.Size())
	for _, c := range g.Nodes {
		out = append(out, c.Key())
	}
	sort.Strings(out)
	return out
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
