// Package explore is an explicit-state model checker for population
// protocols on small instances. It builds the reachability graph of a
// protocol from a set of starting configurations, where edges are
// labeled with the unordered agent pair whose interaction produced them,
// and decides convergence questions exactly:
//
//   - Under global fairness, an execution eventually enters a terminal
//     SCC of the reachability graph and visits all of its configurations
//     infinitely often; a protocol converges to a predicate iff every
//     reachable terminal SCC is a singleton silent configuration
//     satisfying the predicate (CheckGlobal).
//
//   - Under weak fairness, the possible limit behaviours are exactly the
//     "fair" SCCs: strongly connected sub-graphs containing, for every
//     unordered agent pair, at least one internal edge with that label
//     (a walk can then schedule every pair infinitely often without
//     leaving the SCC, and conversely the infinitely-visited set of any
//     weakly fair execution is such an SCC). A protocol converges under
//     weak fairness iff every reachable fair SCC is a singleton silent
//     configuration satisfying the predicate (CheckWeak). For failing
//     protocols, ExtractLasso produces a concrete weakly fair
//     non-converging schedule that can be replayed by the simulator.
//
// The graph is exponential in the population size; Options.MaxNodes
// guards against blow-up, and Options.Workers spreads frontier
// expansion over a pool of goroutines with hash-sharded interning (see
// parallel.go) for large instances.
package explore

import (
	"errors"
	"fmt"
	"time"

	"popnaming/internal/core"
)

// ErrTooLarge is returned when the reachable state space exceeds
// Options.MaxNodes.
var ErrTooLarge = errors.New("explore: state space exceeds node limit")

// Edge is one labeled transition of the reachability graph.
type Edge struct {
	// To is the destination node id.
	To int
	// Label indexes the unordered pair alphabet (Graph.Labels).
	Label int
	// Ordered is the concrete ordered pair applied (for asymmetric
	// protocols the two orientations of a label may differ).
	Ordered core.Pair
}

// Options configures graph construction.
type Options struct {
	// MaxNodes caps the explored state space (default 1 << 20). The
	// budget is global: with Workers > 1 it is shared across all
	// expansion workers, so ErrTooLarge fires iff the reachable state
	// space exceeds MaxNodes, exactly as in a sequential build.
	MaxNodes int
	// Canonical quotients configurations by agent permutation
	// (multiset semantics). The quotient hides moves that only permute
	// names, so CheckGlobal on it accepts a terminal census only if it
	// is a single silent configuration; with that check it agrees with
	// the identity graph for the permutation-invariant predicates used
	// here. Weak-fairness analysis requires identity-preserving graphs
	// and rejects this option.
	Canonical bool
	// Workers > 1 expands BFS frontiers with a pool of goroutines and
	// hash-sharded intern maps. The resulting graph is identical to a
	// sequential build modulo node-id relabeling (same configuration
	// set, same per-node edge structure); 0 or 1 builds sequentially.
	Workers int
}

// BuildStats describes how a Build call explored the graph: BFS shape,
// dedup effectiveness, and the load balance of the sharded intern maps.
type BuildStats struct {
	// Workers is the number of expansion workers actually used.
	Workers int
	// Depth is the number of BFS frontier generations (starts = 1).
	Depth int
	// InternHits counts dedup lookups that found an existing node;
	// InternMisses counts lookups that created one (== final Size()).
	InternHits   uint64
	InternMisses uint64
	// ShardNodes is the final node count per intern shard (a single
	// entry for sequential builds) — the spread measures shard balance.
	ShardNodes []int
	// WallNS is the wall-clock duration of the build.
	WallNS int64
}

// HitRate returns the fraction of intern lookups answered by an
// existing node (0 when no lookups happened).
func (s BuildStats) HitRate() float64 {
	total := s.InternHits + s.InternMisses
	if total == 0 {
		return 0
	}
	return float64(s.InternHits) / float64(total)
}

// NodesPerSec returns the node-creation throughput of the build.
func (s BuildStats) NodesPerSec() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	return float64(s.InternMisses) / (float64(s.WallNS) / 1e9)
}

// ShardBalance returns the smallest and largest per-shard node counts.
func (s BuildStats) ShardBalance() (min, max int) {
	for i, n := range s.ShardNodes {
		if i == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}

// Graph is the reachability graph of a protocol instance.
type Graph struct {
	Proto core.Protocol
	N     int
	// Labels is the unordered pair alphabet: every {i, j} over mobile
	// agents plus {leader, i} when the protocol has a leader.
	Labels []core.Pair
	// Nodes holds one representative configuration per node id.
	Nodes []*core.Config
	// Succ[v] lists v's outgoing edges (up to two per label).
	Succ [][]Edge
	// Start lists the node ids of the starting configurations.
	Start []int
	// Stats records how the build explored the graph.
	Stats BuildStats

	canonical bool
	keyOf     map[string]int // sequential builds
	shards    []internShard  // parallel builds
	scratch   []byte         // reused key buffer for the dedup hot loop
}

// keyBytes encodes c's dedup key into the reused scratch buffer; map
// lookups on string(g.scratch) stay allocation-free, so interning an
// already-seen configuration costs zero allocations.
func (g *Graph) keyBytes(c *core.Config) []byte {
	if g.canonical {
		g.scratch = c.AppendMultisetKey(g.scratch[:0])
	} else {
		g.scratch = c.AppendKey(g.scratch[:0])
	}
	return g.scratch
}

// unorderedLabels enumerates the pair alphabet.
func unorderedLabels(n int, withLeader bool) []core.Pair {
	var out []core.Pair
	lo := 0
	if withLeader {
		lo = -1
	}
	for a := lo; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, core.Pair{A: a, B: b})
		}
	}
	return out
}

// Build explores the reachability graph of proto from the given starting
// configurations (all of the same population size). The starts are not
// mutated and never aliased by the graph, so one start set can be shared
// across many Build calls (the exhaustive search does).
func Build(proto core.Protocol, starts []*core.Config, opts Options) (*Graph, error) {
	if len(starts) == 0 {
		return nil, errors.New("explore: no starting configurations")
	}
	n := starts[0].N()
	for _, c := range starts {
		if c.N() != n {
			return nil, fmt.Errorf("explore: mixed population sizes %d and %d", n, c.N())
		}
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 20
	}
	g := &Graph{
		Proto:     proto,
		N:         n,
		Labels:    unorderedLabels(n, core.HasLeader(proto)),
		canonical: opts.Canonical,
	}
	begin := time.Now()
	var err error
	if opts.Workers > 1 {
		err = g.buildParallel(proto, starts, opts)
	} else {
		err = g.buildSequential(proto, starts, opts)
	}
	if err != nil {
		return nil, err
	}
	g.Stats.WallNS = time.Since(begin).Nanoseconds()
	return g, nil
}

// buildSequential is the single-goroutine BFS over one intern map.
func (g *Graph) buildSequential(proto core.Protocol, starts []*core.Config, opts Options) error {
	g.keyOf = make(map[string]int)
	g.Stats.Workers = 1

	intern := func(c *core.Config) (int, error) {
		k := g.keyBytes(c)
		if id, ok := g.keyOf[string(k)]; ok {
			g.Stats.InternHits++
			return id, nil
		}
		if len(g.Nodes) >= opts.MaxNodes {
			return 0, ErrTooLarge
		}
		id := len(g.Nodes)
		g.keyOf[string(k)] = id
		g.Stats.InternMisses++
		g.Nodes = append(g.Nodes, c.Clone())
		g.Succ = append(g.Succ, nil)
		return id, nil
	}

	var frontier []int
	for _, c := range starts {
		before := len(g.Nodes)
		id, err := intern(c)
		if err != nil {
			return err
		}
		g.Start = append(g.Start, id)
		if len(g.Nodes) > before {
			frontier = append(frontier, id)
		}
	}

	// The queue pops by advancing a head index and compacts once the
	// popped prefix dominates the backing array, so retained frontier
	// memory stays O(live frontier); the previous frontier[1:] pattern
	// pinned every popped id until the next append-triggered realloc.
	// The half-full compaction threshold makes the copies amortized
	// O(1) per pop.
	head := 0
	levelEnd := len(frontier)
	if len(frontier) > 0 {
		g.Stats.Depth = 1
	}
	for head < len(frontier) {
		if head >= levelEnd {
			g.Stats.Depth++
			levelEnd = len(frontier)
		}
		if head > 1024 && head*2 >= len(frontier) {
			n := copy(frontier, frontier[head:])
			frontier = frontier[:n]
			levelEnd -= head
			head = 0
		}
		v := frontier[head]
		head++
		src := g.Nodes[v]
		for li, label := range g.Labels {
			for _, ordered := range orientations(label, proto.Symmetric()) {
				next := src.Clone()
				core.ApplyPair(proto, next, ordered)
				before := len(g.Nodes)
				to, err := intern(next)
				if err != nil {
					return err
				}
				if len(g.Nodes) > before {
					frontier = append(frontier, to)
				}
				g.Succ[v] = append(g.Succ[v], Edge{To: to, Label: li, Ordered: ordered})
			}
		}
	}
	g.Stats.ShardNodes = []int{len(g.Nodes)}
	return nil
}

// orientations returns the ordered pairs to apply for an unordered
// label: one for symmetric protocols, both for asymmetric ones (the
// scheduler also chooses the initiator role).
func orientations(label core.Pair, symmetric bool) []core.Pair {
	if symmetric {
		return []core.Pair{label}
	}
	return []core.Pair{label, {A: label.B, B: label.A}}
}

// AllConfigs enumerates every configuration of n mobile agents over
// states [0, q) — the standard start set for exhaustive checks — once
// per given leader state, code-major and leader-minor, each
// configuration carrying a clone of its leader. With no leaders (or a
// single nil one) the configurations are leaderless.
func AllConfigs(q, n int, leaders ...core.LeaderState) []*core.Config {
	if len(leaders) == 0 {
		leaders = []core.LeaderState{nil}
	}
	total := 1
	for i := 0; i < n; i++ {
		total *= q
	}
	out := make([]*core.Config, 0, total*len(leaders))
	states := make([]core.State, n)
	for code := 0; code < total; code++ {
		c := code
		for i := range states {
			states[i] = core.State(c % q)
			c /= q
		}
		for _, l := range leaders {
			cfg := core.NewConfigStates(states...)
			if l != nil {
				cfg.Leader = l.Clone()
			}
			out = append(out, cfg)
		}
	}
	return out
}

// Size returns the number of nodes.
func (g *Graph) Size() int { return len(g.Nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, es := range g.Succ {
		total += len(es)
	}
	return total
}

// NodeID returns the node id of a configuration, or -1 if unexplored.
// It encodes the lookup key into the graph's reused scratch buffer, so
// repeated queries allocate nothing; like the build itself, it must not
// be called concurrently.
func (g *Graph) NodeID(c *core.Config) int {
	k := g.keyBytes(c)
	if g.shards != nil {
		sh := &g.shards[shardIndex(k, len(g.shards))]
		if id, ok := sh.m[string(k)]; ok {
			return id
		}
		return -1
	}
	if id, ok := g.keyOf[string(k)]; ok {
		return id
	}
	return -1
}
