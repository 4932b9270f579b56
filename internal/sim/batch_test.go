package sim

import (
	"context"
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
)

// runBatch runs trials [0, trials) unsupervised: one attempt, the whole
// budget in one slice, no sink.
func runBatch(pr core.Protocol, trials, budget, workers int, mk func(trial int) Trial) []BatchResult {
	sup := Supervision{StepBudget: budget, Slice: budget}
	return RunBatch(context.Background(), pr, 0, trials, workers, sup, BatchObs{}, func(trial, _ int) Trial {
		return mk(trial)
	}).Results
}

func TestRunBatchAllConverge(t *testing.T) {
	const n, trials = 8, 40
	pr := naming.NewSelfStab(n)
	results := runBatch(pr, trials, 10_000_000, 4, func(trial int) Trial {
		r := rand.New(rand.NewSource(int64(trial)))
		return Trial{
			Cfg:   ArbitraryConfig(pr, n, r),
			Sched: sched.NewRandom(n, true, int64(trial)),
		}
	})
	if len(results) != trials {
		t.Fatalf("got %d results", len(results))
	}
	for _, br := range results {
		if !br.Result.Converged {
			t.Fatalf("trial %d did not converge: %s", br.Trial, br.Result)
		}
		if !br.Result.Final.ValidNaming() {
			t.Fatalf("trial %d invalid naming", br.Trial)
		}
	}
}

// TestRunBatchDeterministicPerTrial: results depend only on the trial's
// seed, not on scheduling of goroutines.
func TestRunBatchDeterministicPerTrial(t *testing.T) {
	const n, trials = 6, 16
	pr := naming.NewAsymmetric(n)
	run := func(workers int) []int {
		results := runBatch(pr, trials, 5_000_000, workers, func(trial int) Trial {
			r := rand.New(rand.NewSource(int64(trial)))
			return Trial{
				Cfg:   ArbitraryConfig(pr, n, r),
				Sched: sched.NewRandom(n, false, int64(trial)),
			}
		})
		steps := make([]int, trials)
		for _, br := range results {
			steps[br.Trial] = br.Result.Steps
		}
		return steps
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs: serial %d vs parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestRunBatchZeroWorkersDefaults(t *testing.T) {
	pr := naming.NewAsymmetric(4)
	results := runBatch(pr, 3, 1_000_000, 0, func(trial int) Trial {
		return Trial{
			Cfg:   UniformConfig(pr, 4),
			Sched: sched.NewRoundRobin(4, false),
		}
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestRunBatchRace(t *testing.T) {
	// Exercised under -race in CI-style runs: many workers sharing one
	// protocol value.
	pr := naming.NewGlobalP(4)
	runBatch(pr, 32, 100_000, 16, func(trial int) Trial {
		r := rand.New(rand.NewSource(int64(trial)))
		return Trial{
			Cfg:   ArbitraryConfig(pr, 3, r),
			Sched: sched.NewRandom(3, true, int64(trial)),
		}
	})
}
