package sim

import (
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
)

// FuzzCountSampler drives the non-null pair sampler through an arbitrary
// initial occupancy, an arbitrary rule table (or Protocol 2 with an
// arbitrary leader state) and an arbitrary interleaving of draws, applied
// interactions, hand-made count moves and leader changes, checking:
//
//   - weights: each block holds the sum of its rows, the blocks sum to
//     mobileW, and that plus 2·leaderC equals W recounted from the
//     counts, the table and the leader;
//   - draws: every drawn interaction is non-null and schedulable — its
//     states are occupied, and a sole agent never meets itself;
//   - silence: W = 0 exactly when the census silence test holds;
//   - counts conserve N across every move.
//
// The corpus seeds cover the boundary shapes: single occupied state,
// all-distinct counts, skew with a sole agent, heavy counts, a minimal
// population, and a leader protocol.
func FuzzCountSampler(f *testing.F) {
	f.Add(int64(1), false, []byte{10, 0, 0, 0})        // one occupied state
	f.Add(int64(2), false, []byte{1, 1, 1, 1})         // all distinct (valid naming)
	f.Add(int64(3), false, []byte{200, 1, 0, 55})      // skewed with a sole agent
	f.Add(int64(4), false, []byte{255, 255, 255, 255}) // heavy counts
	f.Add(int64(5), false, []byte{0, 0, 0, 2})         // minimal population at the edge
	f.Add(int64(6), true, []byte{7, 1, 0, 2, 0})       // Protocol 2 with a leader
	f.Fuzz(func(t *testing.T, seed int64, leader bool, occ []byte) {
		if len(occ) > 16 {
			occ = occ[:16]
		}
		if leader && len(occ) < 3 || len(occ) == 0 {
			return
		}
		q := len(occ)
		rng := rand.New(rand.NewSource(seed))
		var pr core.Protocol
		var l core.LeaderState
		if leader {
			ss := naming.NewSelfStab(q - 1)
			pr, l = ss, ss.RandomLeader(rng)
		} else {
			// A random table: about a third of the pairs react, to random
			// successors (a few of which are null anyway).
			rt := core.NewRuleTable("fuzz", q, q)
			for x := 0; x < q; x++ {
				for y := 0; y < q; y++ {
					if rng.Intn(3) == 0 {
						rt.Add(core.State(x), core.State(y), core.State(rng.Intn(q)), core.State(rng.Intn(q)))
					}
				}
			}
			pr = rt
		}
		counts := make([]int, q)
		n := 0
		for i, b := range occ {
			counts[i] = int(b)
			n += int(b)
		}
		if n < 2 {
			return
		}
		r, err := NewCountRunner(pr, &core.CountConfig{Counts: counts, Leader: l}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ensure(); err != nil {
			t.Fatal(err)
		}
		moves := newCountRNG(seed + 1)

		check := func(step int) {
			t.Helper()
			w := recountWeight(r)
			if got := blockTotal(t, r) + 2*r.leaderC; got != w || r.weight() != w {
				t.Fatalf("step %d: block total + 2·leaderC = %d, W = %d, recounted %d", step, got, r.weight(), w)
			}
			census, err := core.NewCensusCounts(r.tab, append([]int(nil), counts...))
			if err != nil {
				t.Fatal(err)
			}
			if silent := census.Silent(r.Cfg.Leader); silent != (w == 0) {
				t.Fatalf("step %d: census silent %v, W = %d", step, silent, w)
			}
			if r.Cfg.N() != n {
				t.Fatalf("step %d: counts no longer conserve N: %d", step, r.Cfg.N())
			}
		}
		check(-1)

		for step := 0; step < 300; step++ {
			if w := r.weight(); w > 0 {
				x, y, lead := r.pair(moves.uint64n(w))
				if pairWeight(r, x, y, lead) == 0 {
					t.Fatalf("step %d: drew (%d,%d) leader=%v, null or unschedulable in %v", step, x, y, lead, r.Cfg)
				}
				if moves.uint64n(2) == 0 {
					r.apply(moves.uint64n(w))
				}
			}
			// Move one agent between states by hand, and now and then
			// replace the leader state.
			from := core.State(moves.uint64n(uint64(q)))
			if counts[from] > 0 {
				r.move(from, -1)
				r.move(core.State(moves.uint64n(uint64(q))), 1)
			}
			if leader && step%23 == 0 {
				r.Cfg.Leader = pr.(core.ArbitraryLeaderProtocol).RandomLeader(rng)
				r.leaderSet()
			}
			check(step)
		}
	})
}
