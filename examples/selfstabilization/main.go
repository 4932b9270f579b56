// Self-stabilization demo: naming that survives transient memory faults.
//
// Protocol 2 (Proposition 16) tolerates arbitrary corruption of EVERY
// component — all mobile agents and the base station — and re-converges
// to a valid naming under plain weak fairness, using only one state more
// than the absolute minimum (P+1). This demo converges a population from
// an arbitrary start, then smashes a third of its agents and the base
// station at each of three detected convergences (the fault plan
// "@conv:leader+corrupt=3", three times), and recovers every time.
//
//	go run ./examples/selfstabilization
package main

import (
	"fmt"
	"log"
	"math/rand"

	"popnaming/internal/fault"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

func main() {
	const (
		p = 10 // population bound: 11 states per agent
		n = 10 // actual population
	)
	proto := naming.NewSelfStab(p)

	// Nothing is initialized: agents AND base station start arbitrary.
	cfg := sim.ArbitraryConfig(proto, n, rand.New(rand.NewSource(7)))
	fmt.Println("cold start:", cfg)

	plan, err := fault.Parse("@conv:leader+corrupt=3,@conv:leader+corrupt=3,@conv:leader+corrupt=3")
	if err != nil {
		log.Fatal(err)
	}
	inj, err := fault.NewInjector(plan, proto, 7)
	if err != nil {
		log.Fatal(err)
	}
	run := sim.NewRunner(proto, sched.NewRoundRobin(n, true), cfg)
	run.Inject = inj
	res := run.Run(50_000_000)
	if !res.Converged || !cfg.ValidNaming() {
		log.Fatalf("failed to recover: %s", res)
	}
	for _, f := range inj.Fired() {
		fmt.Printf("converged at interaction %d, injected %s\n", f.Step, f.Event)
	}
	fmt.Printf("recovered from all %d faults in %d interactions -> %s\n", plan.Conv(), res.Steps, cfg)
}
