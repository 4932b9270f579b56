package sim

import (
	"testing"

	"popnaming/internal/core"
)

// FuzzCountSampler drives the sampler through an arbitrary initial
// occupancy and an arbitrary interleaving of draws and count moves,
// checking the pair-sampler invariants:
//
//   - weights sum: the Fenwick tree's full prefix sum always equals N;
//   - draws land only on occupied states;
//   - diagonal correction: a responder draw never collides with the
//     initiator when the initiator's state holds a single agent;
//   - counts conserve N across every applied transition.
//
// The corpus seeds cover the boundary shapes: single occupied state,
// all-distinct counts, heavy churn.
func FuzzCountSampler(f *testing.F) {
	f.Add(int64(1), []byte{10, 0, 0, 0})        // one occupied state
	f.Add(int64(2), []byte{1, 1, 1, 1})         // all distinct (valid naming)
	f.Add(int64(3), []byte{200, 1, 0, 55})      // skewed with a sole agent
	f.Add(int64(4), []byte{255, 255, 255, 255}) // heavy counts
	f.Add(int64(5), []byte{0, 0, 0, 2})         // minimal population at the edge
	f.Fuzz(func(t *testing.T, seed int64, occ []byte) {
		if len(occ) == 0 {
			return
		}
		if len(occ) > 16 {
			occ = occ[:16]
		}
		q := len(occ)
		counts := make([]int, q)
		n := 0
		for i, b := range occ {
			counts[i] = int(b)
			n += int(b)
		}
		if n < 2 {
			return
		}
		fen := newFenwickSampler(append([]int(nil), counts...), n)
		rng := newCountRNG(seed)
		moves := newCountRNG(seed + 1)

		checkTotals := func(step int) {
			t.Helper()
			// Fenwick: the tree's full prefix sum must equal N.
			var total int64
			pos := 0
			for k := fen.highbit; k > 0; k >>= 1 {
				if next := pos + k; next <= fen.q {
					total += fen.tree[next]
					pos = next
				}
			}
			if total != int64(n) {
				t.Fatalf("step %d: fenwick total %d, want %d", step, total, n)
			}
		}
		checkTotals(-1)

		for step := 0; step < 300; step++ {
			// Draws must hit occupied states.
			fs := fen.draw(&rng)
			if fen.counts[fs] <= 0 {
				t.Fatalf("step %d: fenwick drew empty state %d", step, fs)
			}
			// Move one agent between states (a transition's worth of
			// drift), keeping N conserved by construction.
			from := int(fen.draw(&moves))
			to := int(moves.uint64n(uint64(q)))
			fen.counts[from]--
			fen.counts[to]++
			fen.sync(core.State(from))
			fen.sync(core.State(to))
			if step%37 == 0 {
				checkTotals(step)
				sum := 0
				for _, c := range fen.counts {
					sum += c
				}
				if sum != n {
					t.Fatalf("step %d: counts no longer conserve N: %d", step, sum)
				}
			}
		}
		checkTotals(300)

		// Diagonal correction through a runner: a sole-agent state can
		// never meet itself.
		sole := -1
		for s, c := range counts {
			if c == 1 {
				sole = s
				break
			}
		}
		if sole >= 0 {
			r, err := NewCountRunner(churnProto(q), &core.CountConfig{Counts: append([]int(nil), counts...)}, seed)
			if err != nil {
				return
			}
			if err := r.ensure(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if got := r.drawResponder(core.State(sole)); got == core.State(sole) {
					t.Fatalf("responder collided with the sole agent of state %d", sole)
				}
			}
		}
	})
}
