package explore_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
)

// assertEqualGraphs checks that got is want: the same starts, node
// configurations in id order, edges element for element, and build
// statistics (all but WallNS and Workers).
func assertEqualGraphs(t *testing.T, name string, want, got *explore.Graph) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d nodes, want %d", name, got.Size(), want.Size())
	}
	if !slices.Equal(got.Start, want.Start) {
		t.Fatalf("%s: Start = %v, want %v", name, got.Start, want.Start)
	}
	for v, c := range want.Nodes {
		if !got.Nodes[v].Equal(c) {
			t.Fatalf("%s: node %d is %s, want %s", name, v, got.Nodes[v], c)
		}
		if !slices.Equal(got.Succ[v], want.Succ[v]) {
			t.Fatalf("%s: node %d edges %+v, want %+v", name, v, got.Succ[v], want.Succ[v])
		}
	}
	gs, ws := got.Stats, want.Stats
	if gs.Depth != ws.Depth || gs.InternHits != ws.InternHits || gs.InternMisses != ws.InternMisses {
		t.Fatalf("%s: depth %d, hits %d, misses %d; want %d, %d, %d", name,
			gs.Depth, gs.InternHits, gs.InternMisses, ws.Depth, ws.InternHits, ws.InternMisses)
	}
}

// assertEqualAcrossWorkers builds the graph at workers 1, 2, 4 and 8
// and requires every build to equal the first, which it returns.
func assertEqualAcrossWorkers(t *testing.T, name string, proto core.Protocol, starts []*core.Config, opts explore.Options) *explore.Graph {
	t.Helper()
	var first *explore.Graph
	for _, w := range []int{1, 2, 4, 8} {
		opts.Workers = w
		g, err := explore.Build(proto, starts, opts)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		if g.Stats.Workers != w {
			t.Errorf("%s: Stats.Workers = %d, want %d", name, g.Stats.Workers, w)
		}
		if first == nil {
			first = g
			continue
		}
		assertEqualGraphs(t, fmt.Sprintf("%s workers=%d", name, w), first, g)
	}
	return first
}

func diffProtocols() []*core.RuleTable {
	return []*core.RuleTable{
		core.NewRuleTable("bw", 4, 2).
			AddSymmetric(0, 0, 1, 1).
			AddSymmetric(0, 1, 1, 0),
		core.NewRuleTable("oneway", 3, 3). // asymmetric: both orientations
							Add(0, 1, 0, 0).
							Add(1, 2, 2, 2).
							Add(2, 0, 1, 0),
		core.NewRuleTable("chain", 4, 4).
			AddSymmetric(0, 0, 1, 1).
			AddSymmetric(1, 1, 2, 2).
			AddSymmetric(2, 2, 3, 3).
			AddSymmetric(0, 3, 3, 0),
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, pr := range diffProtocols() {
		assertEqualAcrossWorkers(t, pr.Name(), pr, explore.AllConfigs(pr.States(), 4, nil), explore.Options{})
	}
}

func TestParallelBuildCanonicalMatchesSequential(t *testing.T) {
	pr := core.NewRuleTable("bw", 5, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	starts := []*core.Config{core.NewConfigStates(1, 0, 0, 0, 0)}
	g := assertEqualAcrossWorkers(t, "bw", pr, starts, explore.Options{Canonical: true})
	if v := g.CheckGlobal(explore.Naming); v.OK {
		t.Fatalf("canonical bw passed the naming check: %s", v)
	}
}

func TestParallelBuildNodeLimit(t *testing.T) {
	pr := core.NewRuleTable("inc3", 4, 4).
		Add(0, 0, 0, 1).Add(1, 1, 1, 2).Add(2, 2, 2, 3).
		Add(0, 1, 1, 1).Add(1, 2, 2, 2).Add(2, 3, 3, 3).
		Add(1, 0, 1, 1).Add(2, 1, 2, 2).Add(3, 2, 3, 3)
	starts := []*core.Config{core.NewConfigStates(0, 0, 0)}
	for _, w := range []int{2, 8} {
		_, err := explore.Build(pr, starts, explore.Options{MaxNodes: 2, Workers: w})
		if !errors.Is(err, explore.ErrTooLarge) {
			t.Fatalf("workers=%d: err = %v, want ErrTooLarge", w, err)
		}
	}
	// The budget is a property of the reachable set, not the schedule:
	// a limit just large enough must succeed at every worker count.
	seq, err := explore.Build(pr, starts, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		g, err := explore.Build(pr, starts, explore.Options{MaxNodes: seq.Size(), Workers: w})
		if err != nil {
			t.Fatalf("workers=%d at exact budget: %v", w, err)
		}
		if g.Size() != seq.Size() {
			t.Fatalf("workers=%d: %d nodes, want %d", w, g.Size(), seq.Size())
		}
	}
}

// TestConcurrentBuilds: builds running at once, each with workers of
// its own, share only the builder pool; every graph must still equal
// a lone build's.
func TestConcurrentBuilds(t *testing.T) {
	pr := diffProtocols()[1]
	starts := explore.AllConfigs(pr.States(), 4, nil)
	want, err := explore.Build(pr, starts, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*explore.Graph, 8)
	errs := make([]error, len(graphs))
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i], errs[i] = explore.Build(pr, starts, explore.Options{Workers: 1 + i%3})
		}(i)
	}
	wg.Wait()
	for i, g := range graphs {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		assertEqualGraphs(t, fmt.Sprintf("build %d", i), want, g)
	}
}

func TestBuildStatsSequential(t *testing.T) {
	pr := core.NewRuleTable("bw", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	g, err := explore.Build(pr, []*core.Config{core.NewConfigStates(1, 0, 0)}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats
	if s.Workers != 1 {
		t.Errorf("Workers = %d, want 1", s.Workers)
	}
	if int(s.InternMisses) != g.Size() {
		t.Errorf("InternMisses = %d, want Size %d", s.InternMisses, g.Size())
	}
	if int(s.InternHits+s.InternMisses) != g.EdgeCount()+len(g.Start) {
		t.Errorf("lookups = %d, want edges+starts = %d",
			s.InternHits+s.InternMisses, g.EdgeCount()+len(g.Start))
	}
	if s.Depth < 1 {
		t.Errorf("Depth = %d, want >= 1", s.Depth)
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("HitRate = %v, want in (0,1)", s.HitRate())
	}
	if s.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", s.WallNS)
	}
}

// TestNodeIDZeroAlloc pins the scratch-buffer lookup path: NodeID must
// not allocate, whatever the build's worker count (search loops may
// call it once per candidate), on identity and canonical graphs alike
// (a canonical key counts states on the stack).
func TestNodeIDZeroAlloc(t *testing.T) {
	pr := core.NewRuleTable("bw", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	starts := explore.AllConfigs(2, 3, nil)
	probe := core.NewConfigStates(1, 1, 0)
	for _, canonical := range []bool{false, true} {
		for _, w := range []int{1, 4} {
			g, err := explore.Build(pr, starts, explore.Options{Workers: w, Canonical: canonical})
			if err != nil {
				t.Fatal(err)
			}
			g.NodeID(probe) // warm the scratch buffer
			if allocs := testing.AllocsPerRun(100, func() {
				if g.NodeID(probe) < 0 {
					t.Fatal("probe configuration should be reachable")
				}
			}); allocs != 0 {
				t.Errorf("canonical=%v workers=%d: NodeID allocates %v times per call, want 0", canonical, w, allocs)
			}
		}
	}
}

// TestFrontierCompaction builds a graph whose first level, its 7,776
// starts, spans many expansion chunks, so workers resolve successors
// interned by earlier chunks of the same level; the graph must still
// be equal at every worker count.
func TestFrontierCompaction(t *testing.T) {
	pr := core.NewRuleTable("chain6", 6, 6)
	for s := 0; s < 5; s++ {
		pr.AddSymmetric(core.State(s), core.State(s), core.State(s+1), core.State(s+1))
		pr.Add(core.State(s), core.State(s+1), core.State(s+1), core.State(s+1))
		pr.Add(core.State(s+1), core.State(s), core.State(s+1), core.State(s+1))
	}
	starts := explore.AllConfigs(6, 5, nil)
	g := assertEqualAcrossWorkers(t, "chain6", pr, starts, explore.Options{})
	if g.Size() < 4*explore.ChunkNodes {
		t.Fatalf("graph too small (%d nodes) to span several chunks", g.Size())
	}
}
