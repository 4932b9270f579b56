package counting

import (
	"sync"

	"popnaming/internal/core"
)

// maxBoxedName caps the bound of a LeaderBoxes table: the table for
// maxName m holds (m+2)·(2^m+1) states, 2,570 at m = 8.
const maxBoxedName = 8

// LeaderBoxes hands out the leader states (n, k) of one leader type,
// each boxed in a core.LeaderState once per process, so a LeaderInteract
// that returns a changed leader state allocates nothing. A Go interface
// holding a struct points at a copy of it, so returning a fresh BST
// boxes a fresh 16-byte copy on every non-null leader step.
//
// There is one table per bound maxName, the U* parameter CountingStep
// takes with nLimit = maxName+1. It covers every state that step can
// reach, n ∈ [0, maxName+1] and k ∈ [0, 2^maxName], and is built on its
// first use. Protocol values share it, so constructing a protocol, as
// every job admission does, builds nothing. Above maxName 8, and for a
// state outside the domain, Box boxes a fresh copy.
type LeaderBoxes struct {
	box  func(n, k int) core.LeaderState
	tabs [maxBoxedName + 1]struct {
		once sync.Once
		tab  []core.LeaderState
	}
}

// NewLeaderBoxes returns the tables of the leader type box builds; box
// must return a fresh boxed state (n, k).
func NewLeaderBoxes(box func(n, k int) core.LeaderState) *LeaderBoxes {
	return &LeaderBoxes{box: box}
}

// Box returns the leader state (n, k) of the bound maxName, boxed.
func (b *LeaderBoxes) Box(maxName, n, k int) core.LeaderState {
	if uint(maxName) > maxBoxedName {
		return b.box(n, k)
	}
	span := 1<<maxName + 1
	if uint(n) > uint(maxName+1) || uint(k) >= uint(span) {
		return b.box(n, k)
	}
	t := &b.tabs[maxName]
	t.once.Do(func() {
		t.tab = make([]core.LeaderState, (maxName+2)*span)
		for i := range t.tab {
			t.tab[i] = b.box(i/span, i%span)
		}
	})
	return t.tab[n*span+k]
}
