package sim

import (
	"math"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/fault"
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
// interactions, converged or not, as the Step rungs do. "run/corrupt"
// runs unobserved under a plan that corrupts one agent every 4,096
// interactions, which cuts the fused loop at every event.
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
	b.Run("run/corrupt", func(b *testing.B) {
		run := mk(nil)
		plan := new(fault.Plan)
		for s := int64(4096); s < int64(b.N); s += 4096 {
			plan.Events = append(plan.Events, fault.Event{Step: s, Kind: fault.Corrupt, Arg: 1})
		}
		inj, err := fault.NewInjector(plan, pr, 1)
		if err != nil {
			b.Fatal(err)
		}
		run.Inject = inj
		b.ReportAllocs()
		b.ResetTimer()
		if res := run.Run(b.N); res.Steps != b.N {
			b.Fatalf("ran %d of %d steps", res.Steps, b.N)
		}
		if len(inj.Fired()) != len(plan.Events) {
			b.Fatalf("fired %d of %d events", len(inj.Fired()), len(plan.Events))
		}
	})
}
