package sim_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
	"popnaming/internal/trace"
)

// TestEmptyPlanMatchesNilInjector pins the fault layer's zero-cost
// contract: attaching an injector with an empty plan must leave every
// registry protocol's run byte-identical to the nil-injector fast path —
// same step counts, same non-null counts, same final configuration.
func TestEmptyPlanMatchesNilInjector(t *testing.T) {
	const seed, budget = 90210, 400000
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			pr, n := diffCase(t, key)
			withLeader := core.HasLeader(pr)

			plain := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			injected := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			inj, err := fault.NewInjector(&fault.Plan{}, pr, seed)
			if err != nil {
				t.Fatal(err)
			}
			injected.Inject = inj

			got := injected.Run(budget)
			want := plain.Run(budget)
			if got.Converged != want.Converged || got.Steps != want.Steps || got.NonNull != want.NonNull {
				t.Fatalf("empty plan changed the run:\n  injected %v\n  plain    %v", got, want)
			}
			if !sameConfig(got.Final, want.Final) {
				t.Fatalf("empty plan changed the final configuration:\n  injected %v\n  plain    %v", got.Final, want.Final)
			}
			if len(inj.Fired()) != 0 {
				t.Fatalf("empty plan fired %d events", len(inj.Fired()))
			}
		})
	}
}

// faultPlans are the plans TestFaultRunMatchesInterpretedFaultRun
// runs, one for each way the fused loop meets its injector: a step
// event cuts a fused segment, a conv group fires at a successful
// silence check inside one, and a suppressing event hands the steps to
// Step until the burst ends, or for good after a crash.
var faultPlans = []struct{ name, plan string }{
	{"step-before-conv", "@150:corrupt=2,@conv:corrupt=1"},
	{"step-after-conv", "@conv:corrupt=2,@3000:corrupt=3,@conv:corrupt=1"},
	{"joined-conv", "@conv:corrupt=2+churn=1,@conv:corrupt=1+omit=40+corrupt=1"},
	{"crash", "@400:crash=1,@conv:churn=2"},
	{"omit-burst", "@100:omit=700,@conv:churn=2,@conv:omit=50"},
	{"reboot", "@conv:reboot=1,@2500:reboot+churn=1,@conv:reboot=1"},
	{"leader", "@conv:leader=1,@2500:reboot+corrupt=2,@conv:reboot=1"},
}

// TestFaultRunMatchesInterpretedFaultRun drives every plan of
// faultPlans through three runners of each protocol that supports it —
// compiled on the fused loop, compiled with an OnStep hook (which keeps
// every interaction on Step), and interpreted — and demands equal
// Results, fired logs and, when observed, journals equal under
// obs.Canonical: fault handling must not depend on the path. The same
// three runs supervised in slices must agree too, and with the runs'
// own results when one slice spans the budget.
func TestFaultRunMatchesInterpretedFaultRun(t *testing.T) {
	for _, key := range experiments.RegistryKeys() {
		t.Run(key, func(t *testing.T) {
			for _, fp := range faultPlans {
				t.Run(fp.name, func(t *testing.T) { faultPathsAgree(t, key, fp.plan) })
			}
		})
	}
}

// faultPathsAgree is TestFaultRunMatchesInterpretedFaultRun for one
// registry protocol and one plan.
func faultPathsAgree(t *testing.T, key, planText string) {
	const seed, budget, slice = 777, 300_000, 1000
	paths := []string{"fused", "per-step", "interpreted"}
	pr, n := diffCase(t, key)
	plan := mustParse(t, planText)
	if _, err := fault.NewInjector(plan, pr, seed); err != nil {
		t.Skipf("plan needs what %s lacks: %v", key, err)
	}
	withLeader := core.HasLeader(pr)
	mk := func(path string, attempt int, sink obs.Sink) *sim.Runner {
		r := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed+int64(attempt)), diffStart(pr, n, seed))
		r.Interpret = path == "interpreted"
		if path == "per-step" {
			r.OnStep = func(trace.Event) {}
		}
		inj, err := fault.NewInjector(plan, pr, seed)
		if err != nil {
			t.Fatal(err)
		}
		r.Inject = inj
		if sink != nil {
			inj.Sink = sink
			r.Obs = obs.NewObserver(n, withLeader, obs.ObserverOptions{Sink: sink, ProgressEvery: 97})
		}
		return r
	}
	type outcome struct {
		res     sim.Result
		fired   []fault.Fired
		journal []byte
	}
	for _, observed := range []bool{false, true} {
		var outs []outcome
		for _, path := range paths {
			var buf bytes.Buffer
			var sink obs.Sink
			if observed {
				sink = obs.NewJournalSink(&buf)
			}
			r := mk(path, 0, sink)
			res := r.Run(budget)
			outs = append(outs, outcome{res, r.Inject.Fired(), obs.Canonical(buf.Bytes())})
		}
		want := outs[0]
		if len(want.fired) == 0 {
			t.Fatalf("observed=%v: no event fired in %v", observed, want.res)
		}
		for i, got := range outs[1:] {
			path := paths[i+1]
			if got.res.Converged != want.res.Converged || got.res.Steps != want.res.Steps || got.res.NonNull != want.res.NonNull {
				t.Fatalf("observed=%v: %s run diverged:\n  fused %v\n  %s %v", observed, path, want.res, path, got.res)
			}
			if !sameConfig(got.res.Final, want.res.Final) {
				t.Fatalf("observed=%v: %s run reached another final configuration", observed, path)
			}
			if !reflect.DeepEqual(got.fired, want.fired) {
				t.Fatalf("observed=%v: %s run fired %v, fused %v", observed, path, got.fired, want.fired)
			}
			if line, a, b := firstDiff(want.journal, got.journal); line > 0 {
				t.Fatalf("%s journal diverges at line %d:\n  fused %s\n  %s %s", path, line, a, path, b)
			}
		}

		// Supervised: in slices, the three paths agree; in one slice,
		// each equals its unsupervised run.
		for _, sl := range []int{slice, budget} {
			var sups []sim.SupervisedResult
			for _, path := range paths {
				var sink obs.Sink
				if observed {
					sink = obs.NewJournalSink(io.Discard)
				}
				sups = append(sups, sim.Supervise(context.Background(),
					sim.Supervision{StepBudget: budget, Slice: sl},
					func(attempt int) *sim.Runner { return mk(path, attempt, sink) }))
			}
			for i, sr := range sups {
				want := sups[0].Result
				if sl == budget {
					want = outs[i].res
				}
				if sr.Converged != want.Converged || sr.Steps != want.Steps || sr.NonNull != want.NonNull || !sameConfig(sr.Final, want.Final) {
					t.Fatalf("observed=%v, slice %d: supervised %s run %v, want %v", observed, sl, paths[i], sr.Result, want)
				}
			}
		}
	}
}

func mustParse(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
