package sim

import (
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/naming"
)

// BenchmarkCorrupt measures one k-corruption by the fault injector: a
// partial Fisher–Yates over its scratch index slice picks the k
// victims, where the first recovery experiments permuted (and
// allocated) all n positions to keep k. The plan holds one step event
// per iteration; the bytes per op are the fired log's amortized growth.
func BenchmarkCorrupt(b *testing.B) {
	const n, k = 1024, 32
	pr := naming.NewSelfStab(n)
	r := rand.New(rand.NewSource(9))
	cfg := core.NewConfig(n, 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = pr.RandomMobile(r)
	}
	plan := &fault.Plan{Events: make([]fault.Event, b.N)}
	for i := range plan.Events {
		plan.Events[i] = fault.Event{Step: int64(i), Kind: fault.Corrupt, Arg: k}
	}
	inj, err := fault.NewInjector(plan, pr, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj.FireDue(int64(i), cfg)
	}
}
