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
// guards against blow-up. Options.Workers spreads frontier expansion
// over goroutines, and the graph is equal at any worker count: Build
// numbers nodes in breadth-first discovery order.
package explore

import (
	"errors"
	"fmt"
	"sync"
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
	// MaxNodes caps the explored state space (default 1 << 20):
	// ErrTooLarge fires iff the reachable state space exceeds it, at
	// any worker count.
	MaxNodes int
	// Canonical quotients configurations by agent permutation
	// (multiset semantics). The quotient hides moves that only permute
	// names, so CheckGlobal on it accepts a terminal census only if it
	// is a single silent configuration; with that check it agrees with
	// the identity graph for the permutation-invariant predicates used
	// here. Weak-fairness analysis requires identity-preserving graphs
	// and rejects this option.
	Canonical bool
	// Workers > 1 computes each frontier chunk's successors and their
	// keys on that many goroutines; the calling goroutine interns them
	// in frontier, label and orientation order. So node ids, Start,
	// Succ and Stats (except WallNS and Workers) are equal at any worker
	// count, and exact analyses of the graph match bit for bit.
	Workers int
}

// BuildStats describes how a Build call explored the graph: BFS shape
// and dedup effectiveness.
type BuildStats struct {
	// Workers is the number of expansion workers the build could use.
	Workers int
	// Depth is the number of BFS frontier generations (starts = 1).
	Depth int
	// InternHits counts dedup lookups that found an existing node;
	// InternMisses counts lookups that created one (== final Size()).
	InternHits   uint64
	InternMisses uint64
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

// Graph is the reachability graph of a protocol instance.
type Graph struct {
	Proto core.Protocol
	N     int
	// Labels is the unordered pair alphabet: every {i, j} over mobile
	// agents plus {leader, i} when the protocol has a leader.
	Labels []core.Pair
	// Nodes holds one representative configuration per node id, in
	// breadth-first discovery order.
	Nodes []*core.Config
	// Succ[v] lists v's outgoing edges: one per label for symmetric
	// protocols, two (both orientations) for asymmetric ones.
	Succ [][]Edge
	// Start lists the node ids of the starting configurations.
	Start []int
	// Stats records how the build explored the graph.
	Stats BuildStats

	canonical bool
	keyOf     map[string]int
	scratch   []byte // NodeID's reused key buffer
}

// appendKey appends c's dedup key to buf: its multiset key on a
// canonical graph, its identity key otherwise. Map lookups on
// string(key) stay allocation-free, so finding an already-seen
// configuration costs no allocation.
func appendKey(buf []byte, c *core.Config, canonical bool) []byte {
	if canonical {
		return c.AppendMultisetKey(buf)
	}
	return c.AppendKey(buf)
}

// unorderedLabels enumerates the pair alphabet.
func unorderedLabels(n int, withLeader bool) []core.Pair {
	lo := 0
	if withLeader {
		lo = -1
	}
	out := make([]core.Pair, 0, (n-lo)*(n-lo-1)/2)
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
		keyOf:     make(map[string]int),
	}
	g.Stats.Workers = max(opts.Workers, 1)
	begin := time.Now()
	b := builders.Get().(*builder)
	err := b.build(g, starts, opts.MaxNodes)
	builders.Put(b)
	if err != nil {
		return nil, err
	}
	g.Stats.WallNS = time.Since(begin).Nanoseconds()
	return g, nil
}

// chunkNodes is how many frontier nodes one expansion round takes, so
// a successor interned by an earlier chunk is resolved by a worker. A
// chunk splits into up to runsPerWorker runs per worker, which the
// workers take as they come free.
const chunkNodes, runsPerWorker = 512, 4

// builder is Build's scratch, pooled so that the many small builds of
// an exhaustive search allocate their graphs and nothing else.
type builder struct {
	g     *Graph
	moves []Edge // a node's edges but their To, in label and orientation order
	runs  []run
	key   []byte // a start's key
	work  chan *run
	wg    sync.WaitGroup // the chunk's runs
	quit  sync.WaitGroup // the build's workers
}

// run is a contiguous run of a chunk's nodes, with the buffers the
// worker that keys it writes.
type run struct {
	lo      int
	edges   []Edge      // the run's nodes' edges, len(moves) per node
	next    core.Config // the successor being keyed
	keys    []byte      // the pending successors' keys, back to back
	pending []pending
}

// pending is a successor the intern map did not hold when its chunk
// began: the calling goroutine interns it.
type pending struct {
	edge, end int          // its index in run.edges; its key ends at keys[end]
	cfg       *core.Config // the successor itself, the new node if it is one
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// build interns the starts, then expands the graph level by level.
// Nodes are numbered in discovery order, so each BFS level is the id
// range discovered while expanding the level before it. Every start
// and every edge is one intern lookup, and every miss a node.
func (b *builder) build(g *Graph, starts []*core.Config, maxNodes int) error {
	b.g, b.moves = g, b.moves[:0]
	defer b.reset()
	for li, label := range g.Labels {
		b.moves = append(b.moves, Edge{Label: li, Ordered: label})
		if !g.Proto.Symmetric() {
			b.moves = append(b.moves, Edge{Label: li, Ordered: core.Pair{A: label.B, B: label.A}})
		}
	}
	if g.Stats.Workers > 1 {
		b.work = make(chan *run)
		b.quit.Add(g.Stats.Workers)
		for range g.Stats.Workers {
			go func(work <-chan *run) { // keys the runs sent until the build ends
				defer b.quit.Done()
				for r := range work {
					b.keyRun(r)
					b.wg.Done()
				}
			}(b.work)
		}
	}
	for len(b.runs) < runsPerWorker*g.Stats.Workers {
		b.runs = append(b.runs, run{})
	}

	for _, c := range starts {
		b.key = appendKey(b.key[:0], c, g.canonical)
		id, err := g.intern(b.key, c, maxNodes)
		if err != nil {
			return err
		}
		if g.Nodes[id] == c {
			g.Nodes[id] = c.Clone() // the graph never aliases a start
		}
		g.Start = append(g.Start, id)
	}
	for lo, hi := 0, len(g.Nodes); lo < hi; lo, hi = hi, len(g.Nodes) {
		g.Stats.Depth++
		for c := lo; c < hi; c += chunkNodes {
			if err := b.expand(c, min(c+chunkNodes, hi), maxNodes); err != nil {
				return err
			}
		}
	}
	g.Stats.InternMisses = uint64(len(g.Nodes))
	g.Stats.InternHits = uint64(len(starts)+len(g.Nodes)*len(b.moves)) - g.Stats.InternMisses
	return nil
}

// reset ends the build's workers, waits for them to exit, and drops
// the build's references before the builder goes back to the pool.
func (b *builder) reset() {
	if b.work != nil {
		close(b.work)
		b.quit.Wait()
		b.work = nil
	}
	for w := range b.runs {
		r := &b.runs[w]
		clear(r.pending[:cap(r.pending)])
		r.edges, r.next.Leader = nil, nil
	}
	b.g = nil
}

// intern returns the id of the node keyed key, adding c as a new node
// when there is none.
func (g *Graph) intern(key []byte, c *core.Config, maxNodes int) (int, error) {
	if id, ok := g.keyOf[string(key)]; ok {
		return id, nil
	}
	if len(g.Nodes) >= maxNodes {
		return 0, ErrTooLarge
	}
	g.keyOf[string(key)] = len(g.Nodes)
	g.Nodes = append(g.Nodes, c)
	return len(g.Nodes) - 1, nil
}

// expand expands the chunk of nodes [lo, hi): its runs are keyed in
// parallel, then their pending successors are interned in run order,
// which is frontier, label and orientation order.
func (b *builder) expand(lo, hi, maxNodes int) error {
	g, deg := b.g, len(b.moves)
	edges := make([]Edge, (hi-lo)*deg)
	for i := range hi - lo {
		g.Succ = append(g.Succ, edges[i*deg:(i+1)*deg:(i+1)*deg])
	}
	runs := b.runs[:1]
	if b.work != nil {
		runs = b.runs[:min(runsPerWorker*g.Stats.Workers, hi-lo)]
	}
	for w := range runs {
		a, z := w*(hi-lo)/len(runs), (w+1)*(hi-lo)/len(runs)
		runs[w].lo, runs[w].edges = lo+a, edges[a*deg:z*deg]
	}
	if b.work == nil {
		b.keyRun(&runs[0])
	} else {
		b.wg.Add(len(runs))
		for w := range runs {
			b.work <- &runs[w]
		}
		b.wg.Wait()
	}
	for w := range runs {
		r, start := &runs[w], 0
		for _, p := range r.pending {
			id, err := g.intern(r.keys[start:p.end], p.cfg, maxNodes)
			if err != nil {
				return err
			}
			r.edges[p.edge].To, start = id, p.end
		}
	}
	return nil
}

// keyRun writes the edges of r's nodes, reading the intern map but not
// writing it: a successor already in the map gets its id now, any
// other is cloned and left pending.
func (b *builder) keyRun(r *run) {
	g := b.g
	// Locals, not r's fields, in the loop: runs sit side by side, and
	// workers writing neighbouring fields would share cache lines.
	next, keys, pend := r.next, r.keys[:0], r.pending[:0]
	for i := range r.edges {
		src, e := g.Nodes[r.lo+i/len(b.moves)], b.moves[i%len(b.moves)]
		next.Mobile = append(next.Mobile[:0], src.Mobile...)
		next.Leader = src.Leader
		core.ApplyPair(g.Proto, &next, e.Ordered)
		start := len(keys)
		keys = appendKey(keys, &next, g.canonical)
		id, ok := g.keyOf[string(keys[start:])]
		if ok {
			keys = keys[:start]
		} else {
			pend = append(pend, pending{edge: i, end: len(keys), cfg: next.Clone()})
		}
		r.edges[i] = Edge{To: id, Label: e.Label, Ordered: e.Ordered}
	}
	r.next, r.keys, r.pending = next, keys, pend
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
// repeated queries allocate nothing; it must not be called
// concurrently.
func (g *Graph) NodeID(c *core.Config) int {
	g.scratch = appendKey(g.scratch[:0], c, g.canonical)
	if id, ok := g.keyOf[string(g.scratch)]; ok {
		return id
	}
	return -1
}
