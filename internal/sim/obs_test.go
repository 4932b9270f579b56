package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
)

// TestRunnerObserverMatchesResult checks that the observer's counters
// agree exactly with the runner's own accounting and that the journal
// ends with a well-formed summary carrying per-rule fire counts.
func TestRunnerObserverMatchesResult(t *testing.T) {
	const n = 8
	pr := naming.NewAsymmetric(n)
	cfg := core.NewConfig(n, 0)
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	o := obs.NewObserver(n, false, obs.ObserverOptions{Sink: sink, ProgressEvery: 64})
	run := NewRunner(pr, sched.NewRandom(n, false, 1), cfg)
	run.Obs = o
	res := run.Run(5_000_000)
	if !res.Converged {
		t.Fatalf("did not converge: %s", res)
	}
	if o.Steps() != uint64(res.Steps) || o.NonNull() != uint64(res.NonNull) {
		t.Fatalf("observer %d/%d vs result %d/%d",
			o.Steps(), o.NonNull(), res.Steps, res.NonNull)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	var summary obs.Summary
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
		t.Fatalf("last record not a summary: %v", err)
	}
	if summary.Type != "summary" || !summary.Converged || summary.Steps != uint64(res.Steps) {
		t.Fatalf("summary = %+v", summary)
	}
	if len(summary.Rules) == 0 {
		t.Fatal("summary has no rule fire counts")
	}
	var fires uint64
	for _, rc := range summary.Rules {
		fires += rc.Count
	}
	if fires != uint64(res.NonNull) {
		t.Fatalf("rule fires %d != non-null %d", fires, res.NonNull)
	}
	var progress obs.Progress
	if err := json.Unmarshal(lines[0], &progress); err != nil || progress.Type != "progress" {
		t.Fatalf("first record not progress: %v %+v", err, progress)
	}
}

// TestJournalDeterministic: two runs with the same seed produce
// byte-identical canonical journals (obs.Canonical).
func TestJournalDeterministic(t *testing.T) {
	journal := func() []byte {
		const n = 6
		pr := naming.NewSelfStab(n)
		cfg := ArbitraryConfig(pr, n, rand.New(rand.NewSource(3)))
		var buf bytes.Buffer
		sink := obs.NewJournalSink(&buf)
		run := NewRunner(pr, sched.NewRandom(n, true, 3), cfg)
		run.Obs = obs.NewObserver(n, true, obs.ObserverOptions{Sink: sink, ProgressEvery: 1000})
		run.Run(50_000_000)
		return obs.Canonical(buf.Bytes())
	}
	a, b := journal(), journal()
	if !bytes.Equal(a, b) {
		t.Fatalf("journals differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestRunBatchObservedJournal runs a concurrent batch into one shared
// sink (the race detector covers Emit from the workers' goroutines) and
// checks the per-trial summaries and the merged batch summary.
func TestRunBatchObservedJournal(t *testing.T) {
	const n, trials = 6, 8
	pr := naming.NewSelfStab(n)
	var buf bytes.Buffer
	sink := obs.NewJournalSink(&buf)
	sup := Supervision{StepBudget: 50_000_000, Slice: 50_000_000}
	sum := RunBatch(context.Background(), pr, 0, trials, 4, sup, BatchObs{Sink: sink}, func(trial, _ int) Trial {
		r := rand.New(rand.NewSource(int64(trial)))
		return Trial{
			Cfg:   ArbitraryConfig(pr, n, r),
			Sched: sched.NewRandom(n, true, int64(trial)),
		}
	})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if sum.Trials != trials || sum.Converged != trials {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Workers != 4 || sum.WallNS <= 0 {
		t.Fatalf("workers/wall: %+v", sum)
	}
	if sum.Utilization <= 0 || sum.Utilization > 1.5 {
		t.Fatalf("implausible utilization %v", sum.Utilization)
	}
	if sum.StepsToConverge.Count() != trials {
		t.Fatalf("histogram count %d", sum.StepsToConverge.Count())
	}

	summaries := map[int]obs.Summary{}
	batchSummaries := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		switch probe.Type {
		case "summary":
			var s obs.Summary
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			summaries[s.Trial] = s
		case "batch_summary":
			batchSummaries++
		}
	}
	if len(summaries) != trials {
		t.Fatalf("got %d trial summaries, want %d", len(summaries), trials)
	}
	if batchSummaries != 1 {
		t.Fatalf("got %d batch summaries, want 1", batchSummaries)
	}
	for i, br := range sum.Results {
		s, ok := summaries[i]
		if !ok || s.Steps != uint64(br.Result.Steps) {
			t.Fatalf("trial %d summary mismatch: %+v vs %+v", i, s, br.Result)
		}
	}
}

// TestRunBatchMatchesObserved checks that journaling a batch leaves its
// results identical to the unobserved fast path.
func TestRunBatchMatchesObserved(t *testing.T) {
	const n, trials = 5, 6
	pr := naming.NewAsymmetric(n)
	mk := func(trial int) Trial {
		return Trial{
			Cfg:   core.NewConfig(n, 0),
			Sched: sched.NewRoundRobin(n, false),
		}
	}
	a := runBatch(pr, trials, 1_000_000, 2, mk)
	sup := Supervision{StepBudget: 1_000_000, Slice: 1_000_000}
	b := RunBatch(context.Background(), pr, 0, trials, 2, sup, BatchObs{Sink: &syncSink{}}, func(trial, _ int) Trial {
		return mk(trial)
	}).Results
	for i := range a {
		if a[i].Result.Steps != b[i].Result.Steps || a[i].Result.Converged != b[i].Result.Converged {
			t.Fatalf("trial %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunnerFastPathNoAllocs pins the disabled-observability guarantee:
// a step with Obs == nil allocates nothing.
func TestRunnerFastPathNoAllocs(t *testing.T) {
	const n = 64
	pr := naming.NewAsymmetric(n)
	run := NewRunner(pr, sched.NewRandom(n, false, 1), core.NewConfig(n, 0))
	allocs := testing.AllocsPerRun(2000, func() { run.Step() })
	if allocs != 0 {
		t.Fatalf("fast path allocates %v per step, want 0", allocs)
	}
}
