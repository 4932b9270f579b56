package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sim"
)

// reuseCase is one batch of the workspace-reuse tests: trials of one
// protocol at one population, on one engine.
type reuseCase struct {
	name  string
	key   string
	pr    core.Protocol
	n     int
	count bool
	sup   sim.Supervision
	mk    func(trial, attempt int) sim.Trial
}

const (
	reuseP      = 5
	reuseTrials = 3
	reuseSeed   = 77
)

// reuseCases returns every registry protocol × init {zero, uniform,
// arbitrary where supported} × {no faults, corrupt + crash} on the
// agent engine, where trial 1's first attempt crashes every agent so
// that it stalls and is retried, then every registry protocol × init
// {zero, uniform} on the count engine. Populations cycle through 3–5
// agents on the agent engine and 6–7 on the count engine.
func reuseCases(t *testing.T) []reuseCase {
	plan := func(s string) *fault.Plan {
		p, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lockout := plan("@0:crash=64")
	faults := plan("@40:corrupt=2,@80:crash=1")
	crash := plan("@80:crash=1")
	var agent, count []reuseCase
	for _, key := range experiments.RegistryKeys() {
		spec, _ := experiments.Lookup(key)
		pr := spec.New(reuseP)
		_, arbitrary := pr.(core.ArbitraryInitProtocol)
		inits := []string{"zero", "uniform"}
		if arbitrary {
			inits = append(inits, "arbitrary")
		}
		for _, init := range inits {
			for _, fp := range []*fault.Plan{nil, faults} {
				if fp != nil && !arbitrary {
					fp = crash // corruption draws states from RandomMobile
				}
				n := 3 + len(agent)%3
				agent = append(agent, reuseCase{
					name: fmt.Sprintf("agent/%s/n=%d/%s/faults=%v", key, n, init, fp != nil),
					key:  key, pr: pr, n: n,
					sup: sim.Supervision{StepBudget: 20_000, Slice: 256, StallQuiet: 200, Retries: 1},
					mk: func(trial, attempt int) sim.Trial {
						seed := sim.DeriveSeed(reuseSeed, trial, attempt)
						p := fp
						if trial == 1 && attempt == 0 {
							p = lockout
						}
						return sim.AgentTrial(n, init, seed, "random", seed+1, p)
					},
				})
			}
		}
		for _, init := range []string{"zero", "uniform"} {
			n := 6 + len(count)%2
			count = append(count, reuseCase{
				name: fmt.Sprintf("count/%s/n=%d/%s", key, n, init),
				key:  key, pr: pr, n: n, count: true,
				sup: sim.Supervision{StepBudget: 20_000},
				mk: func(trial, attempt int) sim.Trial {
					return sim.CountTrial(n, init, sim.DeriveSeed(reuseSeed, trial, attempt)+1)
				},
			})
		}
	}
	return append(agent, count...)
}

// other returns a case of cs on the given engine whose protocol and
// population differ from c's.
func other(t *testing.T, cs []reuseCase, c reuseCase, count bool) reuseCase {
	for i := range cs {
		o := cs[(i+len(cs)/2)%len(cs)]
		if o.count == count && o.key != c.key && o.n != c.n {
			return o
		}
	}
	t.Fatalf("no %v-engine case differs from %s", count, c.name)
	return reuseCase{}
}

// journal runs trials [lo, hi) of c on ws (a workspace from the pool
// when ws is nil, with helpers joining through idle when that is
// non-nil) and returns its canonical journal without the batch summary.
func (c reuseCase) journal(t *testing.T, ws *sim.Workspace, idle chan func(), lo, hi int, trace bool) []byte {
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	sup := c.sup
	if trace {
		sup.Trace = obs.SpanContext{Trace: obs.NewTraceID(reuseSeed), Sink: sink}
	}
	bo := sim.BatchObs{Sink: sink, ProgressEvery: 100}
	var sum sim.BatchSummary
	switch {
	case ws != nil:
		sum = sim.RunBatchOn(ws, context.Background(), c.pr, lo, hi, sup, bo, c.mk)
	case idle != nil:
		sum = sim.RunBatch(sim.WithIdle(context.Background(), idle), c.pr, lo, hi, 1, sup, bo, c.mk)
	default:
		sum = sim.RunBatch(context.Background(), c.pr, lo, hi, 2, sup, bo, c.mk)
	}
	// Errorf, not Fatalf: the helper-join test runs this off the test
	// goroutine.
	for _, r := range sum.Results {
		if r.Err != nil {
			t.Errorf("%s: trial %d: %v", c.name, r.Trial, r.Err)
		}
	}
	if err := sink.Err(); err != nil {
		t.Error(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(obs.Canonical(buf.Bytes()), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"batch_summary"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// fresh returns c's trials' journal with each trial run alone on a
// newly built workspace.
func (c reuseCase) fresh(t *testing.T, trace bool) []byte {
	var out []byte
	for i := 0; i < reuseTrials; i++ {
		out = append(out, c.journal(t, new(sim.Workspace), nil, i, i+1, trace)...)
	}
	return out
}

// TestWorkspaceReuseLeaksNothing: a batch run on a workspace that last
// ran a different protocol, population and engine journals exactly
// what its trials journal each on a freshly built workspace.
func TestWorkspaceReuseLeaksNothing(t *testing.T) {
	cases := reuseCases(t)
	retried := false
	for _, c := range cases {
		ws := new(sim.Workspace)
		// Leave every part of ws dirty: first a batch on c's engine,
		// then one on the other engine, each of another protocol and
		// population, with faults where the agent engine runs.
		for _, prior := range []reuseCase{other(t, cases, c, c.count), other(t, cases, c, !c.count)} {
			prior.journal(t, ws, nil, 0, reuseTrials, false)
		}
		got := c.journal(t, ws, nil, 0, reuseTrials, false)
		if want := c.fresh(t, false); !bytes.Equal(got, want) {
			t.Errorf("%s: journal on a reused workspace differs from fresh workspaces':\n--- reused\n%s--- fresh\n%s", c.name, got, want)
		}
		retried = retried || bytes.Contains(got, []byte(`"kind":"retry"`))
	}
	if !retried {
		t.Error("no trial was retried")
	}
}

// TestWorkspaceReuseHelperJoin: trials a helper runs through
// sim.WithIdle, on workspaces that earlier batches left in the pool,
// journal what fresh workspaces journal, held records and spans
// included. Run it under -race.
func TestWorkspaceReuseHelperJoin(t *testing.T) {
	cases := reuseCases(t)
	for _, c := range []reuseCase{cases[len(cases)/3], cases[len(cases)-1]} {
		for _, prior := range []reuseCase{other(t, cases, c, c.count), other(t, cases, c, !c.count)} {
			prior.journal(t, nil, nil, 0, 4*reuseTrials, true)
		}
		idle := make(chan func())
		done := make(chan []byte)
		go func() { done <- c.journal(t, nil, idle, 0, reuseTrials, true) }()
		var got []byte
	serve:
		for {
			select {
			case work := <-idle:
				work()
			case got = <-done:
				break serve
			}
		}
		if want := c.fresh(t, true); !bytes.Equal(got, want) {
			t.Errorf("%s: journal with a helper differs from fresh workspaces':\n--- helped\n%s--- fresh\n%s", c.name, got, want)
		}
	}
}
