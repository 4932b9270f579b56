package explore_test

import (
	"strconv"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/explore"
	"popnaming/internal/naming"
)

// BenchmarkBuildLarge measures reachability-graph construction on the
// symmetric global-fairness naming protocol at several worker counts.
// Its graph is its own 3,125 starts, one BFS level wide. Speedup at
// workers > 1 requires a multi-core host (see EXPERIMENTS.md).
func BenchmarkBuildLarge(b *testing.B) {
	proto := naming.NewSymGlobal(4)
	benchBuild(b, proto, explore.AllConfigs(proto.States(), 5, nil))
}

// BenchmarkBuildDeep is the per-level rung: globalp at P = N = 5 from
// the zero start, 8,711 nodes over 38 BFS levels, most of them smaller
// than one expansion chunk.
func BenchmarkBuildDeep(b *testing.B) {
	proto := naming.NewGlobalP(5)
	benchBuild(b, proto, []*core.Config{core.NewConfig(5, 0).WithLeader(proto.InitLeader())})
}

// benchBuild builds proto's graph from starts at workers 1, 2 and 8.
func benchBuild(b *testing.B, proto core.Protocol, starts []*core.Config) {
	for _, w := range []int{1, 2, 8} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				g, err := explore.Build(proto, starts, explore.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				nodes = g.Size()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkGraphNodeID pins the zero-alloc scratch-buffer lookup path.
func BenchmarkGraphNodeID(b *testing.B) {
	pr := core.NewRuleTable("bw", 4, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0)
	g, err := explore.Build(pr, explore.AllConfigs(2, 4, nil), explore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	probe := core.NewConfigStates(1, 1, 0, 0)
	g.NodeID(probe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g.NodeID(probe) < 0 {
			b.Fatal("probe unreachable")
		}
	}
}
