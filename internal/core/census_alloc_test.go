//go:build !race

package core

import "testing"

// Allocations are counted only in builds without the race detector,
// like the other allocation pins.

// TestCensusApplyAllocs: occupancy churn through Apply allocates
// nothing at q = 6, 64 and 1,024 states, one to sixteen bitset words.
func TestCensusApplyAllocs(t *testing.T) {
	for _, q := range []int{6, 64, 1024} {
		c := newCensusChurn(t, q)
		active := c.cs.ActivePairs()
		if allocs := testing.AllocsPerRun(100, func() {
			for k := range c.moves {
				c.step(k)
			}
		}); allocs != 0 {
			t.Errorf("q=%d: %v allocations per %d moves, want 0", q, allocs, len(c.moves))
		}
		if c.cs.ActivePairs() != active {
			t.Errorf("q=%d: churn left %d active pairs, want %d", q, c.cs.ActivePairs(), active)
		}
	}
}
