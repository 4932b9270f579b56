package sim

import (
	"math"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// BenchmarkRunnerObsOverhead measures the cost of the observability
// hook on the engine's hot path, per interaction. The first three
// rungs drive Runner.Step: "disabled" is the per-step fast path
// (Obs == nil), which must report 0 allocs/op; "observer" attaches a
// metrics-only observer and "observer+journal" additionally journals
// to a discarding sink. The run/* rungs drive the same workload through
// Run, which takes the fused loop with or without an observer; the
// quiet window is disabled so that Run executes exactly b.N
// interactions, converged or not, as the Step rungs do.
func BenchmarkRunnerObsOverhead(b *testing.B) {
	const n = 64
	pr := naming.NewAsymmetric(n)
	mk := func(o *obs.Observer) *Runner {
		r := NewRunner(pr, sched.NewRandom(n, false, 1), core.NewConfig(n, 0))
		r.Obs = o
		r.QuietThreshold = math.MaxInt
		return r
	}
	observers := []struct {
		name string
		mk   func() *obs.Observer
	}{
		{"disabled", func() *obs.Observer { return nil }},
		{"observer", func() *obs.Observer { return obs.NewObserver(n, false, obs.ObserverOptions{}) }},
		{"observer+journal", func() *obs.Observer {
			return obs.NewObserver(n, false, obs.ObserverOptions{Sink: obs.Discard, ProgressEvery: 4096})
		}},
	}
	for _, o := range observers {
		b.Run(o.name, func(b *testing.B) {
			run := mk(o.mk())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.Step()
			}
		})
	}
	for _, o := range observers {
		b.Run("run/"+o.name, func(b *testing.B) {
			run := mk(o.mk())
			b.ReportAllocs()
			b.ResetTimer()
			if res := run.Run(b.N); res.Steps != b.N {
				b.Fatalf("ran %d of %d steps", res.Steps, b.N)
			}
		})
	}
}
