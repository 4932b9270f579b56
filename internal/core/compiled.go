package core

import (
	"fmt"
	"sync"
)

// Compiled is a protocol whose mobile-mobile transition function has
// been precomputed into dense flat tables over all |Q|² ordered state
// pairs. The simulation hot loop then costs two array loads per
// interaction instead of an interface call with per-step arithmetic,
// and the null-pair bitset lets silence detection reason about state
// pairs without re-evaluating the transition function.
//
// A Compiled is immutable after Compile returns, apart from its
// non-null adjacency (NonNull), which is built once on first use, and
// is safe for concurrent use by any number of runners (batch trials
// share one).
// It implements Protocol, delegating the metadata methods to the
// source protocol; leader transitions stay interface-dispatched on the
// source (LeaderState is unbounded, so they cannot be tabulated).
type Compiled struct {
	src Protocol
	lp  LeaderProtocol // non-nil iff src has a leader
	q   int

	// outA and outB hold the initiator and responder successor states,
	// indexed by int(x)*q + int(y).
	outA, outB []State
	// null is a bitset over the same index space: bit set iff the pair
	// (x, y) is a null transition.
	null []uint64

	adjOnce sync.Once
	adj     Adjacency
}

// Adjacency holds the non-null ordered state pairs of a compiled table
// in compressed form, once by row and once by column, each list in
// increasing state order. The count engine walks a row to pick a
// responder and a column to find the initiators whose non-null partner
// count moved with a state's count.
type Adjacency struct {
	rowStart, colStart []int32
	rows, cols         []State
}

// Row returns every responder y with (x, y) non-null.
func (a *Adjacency) Row(x State) []State { return a.rows[a.rowStart[x]:a.rowStart[x+1]] }

// Col returns every initiator x with (x, y) non-null.
func (a *Adjacency) Col(y State) []State { return a.cols[a.colStart[y]:a.colStart[y+1]] }

// NonNull returns the table's non-null adjacency. It is built on the
// first call, so runs that never ask for it (every agent-engine run)
// never pay for it.
func (c *Compiled) NonNull() *Adjacency {
	c.adjOnce.Do(c.buildAdjacency)
	return &c.adj
}

// buildAdjacency fills adj from the null bitset with two exact-size
// allocations, one for the row and column offsets and one for the
// lists: a counting pass, then a row-major pass for the rows and a
// column-major pass for the columns.
func (c *Compiled) buildAdjacency() {
	q, a := c.q, &c.adj
	starts := make([]int32, 2*(q+1))
	a.rowStart, a.colStart = starts[:q+1], starts[q+1:]
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			if !c.Null(State(x), State(y)) {
				a.rowStart[x+1]++
				a.colStart[y+1]++
			}
		}
	}
	for s := 0; s < q; s++ {
		a.rowStart[s+1] += a.rowStart[s]
		a.colStart[s+1] += a.colStart[s]
	}
	nnz := int(a.rowStart[q])
	lists := make([]State, 2*nnz)
	a.rows, a.cols = lists[:0:nnz], lists[nnz:nnz]
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			if !c.Null(State(x), State(y)) {
				a.rows = append(a.rows, State(y))
			}
		}
	}
	for y := 0; y < q; y++ {
		for x := 0; x < q; x++ {
			if !c.Null(State(x), State(y)) {
				a.cols = append(a.cols, State(x))
			}
		}
	}
}

// Compile precomputes the mobile-mobile transition table of p and
// validates it against the interface on the way: every output must lie
// in [0, States()), a second evaluation must agree with the first
// (determinism), and the Symmetric() claim must match the actual rule
// set. A protocol failing any check is rejected with a descriptive
// error and must not be run through the compiled fast path.
func Compile(p Protocol) (*Compiled, error) {
	q := p.States()
	if q < 1 {
		return nil, fmt.Errorf("core: compile %q: non-positive state count %d", p.Name(), q)
	}
	c := &Compiled{
		src:  p,
		q:    q,
		outA: make([]State, q*q),
		outB: make([]State, q*q),
		null: make([]uint64, (q*q+63)/64),
	}
	c.lp, _ = p.(LeaderProtocol)
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			x2, y2 := p.Mobile(State(x), State(y))
			if x2 < 0 || int(x2) >= q || y2 < 0 || int(y2) >= q {
				return nil, fmt.Errorf("core: compile %q: rule (%d,%d)->(%d,%d) leaves state space [0,%d)",
					p.Name(), x, y, x2, y2, q)
			}
			x3, y3 := p.Mobile(State(x), State(y))
			if x3 != x2 || y3 != y2 {
				return nil, fmt.Errorf("core: compile %q: non-deterministic rule for (%d,%d)", p.Name(), x, y)
			}
			idx := x*q + y
			c.outA[idx] = x2
			c.outB[idx] = y2
			if int(x2) == x && int(y2) == y {
				c.null[idx>>6] |= 1 << (idx & 63)
			}
		}
	}
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			r, m := x*q+y, y*q+x
			mirrored := c.outA[m] == c.outB[r] && c.outB[m] == c.outA[r]
			if p.Symmetric() && !mirrored {
				return nil, fmt.Errorf("core: compile %q: claims symmetric but rule (%d,%d)->(%d,%d) has no mirror",
					p.Name(), x, y, c.outA[r], c.outB[r])
			}
		}
	}
	if !p.Symmetric() && c.actuallySymmetric() {
		return nil, fmt.Errorf("core: compile %q: claims asymmetric but all rules are symmetric", p.Name())
	}
	return c, nil
}

// MustCompile is Compile panicking on error, for protocols already
// validated by CheckProtocol.
func MustCompile(p Protocol) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Compiled) actuallySymmetric() bool {
	for x := 0; x < c.q; x++ {
		for y := 0; y < c.q; y++ {
			r, m := x*c.q+y, y*c.q+x
			if c.outA[m] != c.outB[r] || c.outB[m] != c.outA[r] {
				return false
			}
		}
	}
	return true
}

// Source returns the protocol the table was compiled from.
func (c *Compiled) Source() Protocol { return c.src }

// Leader returns the source's LeaderProtocol when it has one.
func (c *Compiled) Leader() (LeaderProtocol, bool) { return c.lp, c.lp != nil }

// Name implements Protocol.
func (c *Compiled) Name() string { return c.src.Name() }

// P implements Protocol.
func (c *Compiled) P() int { return c.src.P() }

// States implements Protocol.
func (c *Compiled) States() int { return c.q }

// Symmetric implements Protocol.
func (c *Compiled) Symmetric() bool { return c.src.Symmetric() }

// Mobile implements Protocol by table lookup.
func (c *Compiled) Mobile(x, y State) (State, State) {
	idx := int(x)*c.q + int(y)
	return c.outA[idx], c.outB[idx]
}

// Idx returns the flat table index of the ordered state pair (x, y).
func (c *Compiled) Idx(x, y State) int { return int(x)*c.q + int(y) }

// At returns the successor pair stored at a flat table index.
func (c *Compiled) At(idx int) (State, State) { return c.outA[idx], c.outB[idx] }

// Null reports whether the ordered state pair (x, y) is a null
// transition, by bitset lookup.
func (c *Compiled) Null(x, y State) bool {
	idx := int(x)*c.q + int(y)
	return c.null[idx>>6]&(1<<(idx&63)) != 0
}
