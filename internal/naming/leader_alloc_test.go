//go:build !race

package naming

import (
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/counting"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

// Allocations are counted only in builds without the race detector,
// like the other allocation pins.

// TestLeaderStepAllocs: a non-null leader step of Protocol 2 at P = 6,
// and of Protocol 1 at P = 8 (E05's N = 7 row), returns its successor
// leader state pre-boxed (counting.LeaderBoxes), so whole runs from an
// unnamed population, each with dozens of non-null leader steps, make
// no allocation.
func TestLeaderStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pr   core.LeaderProtocol
		n    int
	}{
		{"selfstab", NewSelfStab(6), 6},
		{"counting", counting.New(8), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.NewConfig(tc.n, 0)
			cfg.Leader = tc.pr.InitLeader()
			r := sim.NewRunner(tc.pr, sched.NewRandom(tc.n, true, 6), cfg)
			leaderSteps := 0
			r.OnStep = func(ev trace.Event) {
				if ev.NonNull && ev.Pair.HasLeader() {
					leaderSteps++
				}
			}
			const runs = 20
			allocs := testing.AllocsPerRun(runs, func() {
				clear(cfg.Mobile)
				cfg.Leader = tc.pr.InitLeader()
				r.Resync()
				if res := r.Run(r.Steps() + 1_000_000); !res.Converged {
					t.Fatalf("run did not converge: %v", res)
				}
			})
			if leaderSteps < 20*(runs+1) {
				t.Fatalf("%d non-null leader steps in %d runs, want at least 20 a run", leaderSteps, runs+1)
			}
			if allocs != 0 {
				t.Fatalf("%v allocations a run of %.0f non-null leader steps, want 0", allocs, float64(leaderSteps)/(runs+1))
			}
		})
	}
}
