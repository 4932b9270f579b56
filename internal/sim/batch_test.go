package sim

import (
	"bytes"
	"context"
	"math/rand"
	"regexp"
	"sync"
	"testing"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/fault"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
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

// forwardSink is a distinct sink value that writes to another, as a
// service's span counter wraps its job's result buffer.
type forwardSink struct{ to obs.Sink }

func (s forwardSink) Emit(rec any) error { return s.to.Emit(rec) }

// batchWorkersKey matches the batch_summary record's worker count in a
// canonical journal line (keys sorted, so it follows another key).
var batchWorkersKey = regexp.MustCompile(`,"workers":[0-9]+`)

// TestRunBatchTrialOrder: a batch journals in trial order at any worker
// count, and with an idle helper joining its one worker, so its journal
// equals the one-worker journal under obs.Canonical once the
// batch_summary's worker count is dropped. Each case journals the
// records a held trial must carry in order: injector faults, supervisor
// retries, count-engine census records, and span records on a sink of
// their own. In the served case trial 0's first attempt waits until
// another trial starts, which only the helper can do, so that trial's
// records are held and it finishes before trial 0. The helper misses a
// batch whose first offer comes before it waits on the idle channel, so
// a served run is repeated until the helper ran a trial.
func TestRunBatchTrialOrder(t *testing.T) {
	const seed = 21
	corrupt := mustPlan(t, "@100:corrupt=2")
	crash := mustPlan(t, "@0:crash=1")
	// agent makes trials of pr at population n, from arbitrary starts,
	// or all agents in state 0 when zero is set, each attempt under its
	// plan's injector.
	agent := func(pr core.ArbitraryInitProtocol, n int, zero bool, plan func(attempt int) *fault.Plan) func(trial, attempt int) Trial {
		return func(trial, attempt int) Trial {
			s := DeriveSeed(seed, trial, attempt)
			tr := Trial{Cfg: ArbitraryConfig(pr, n, rand.New(rand.NewSource(s))), Sched: sched.NewRandom(n, false, s+1)}
			if zero {
				tr.Cfg = zeroStart(n)
			}
			if p := plan(attempt); p != nil {
				inj, err := fault.NewInjector(p, pr, s)
				if err != nil {
					t.Error(err)
				}
				tr.Inject = inj
			}
			return tr
		}
	}
	asym2, asym6 := naming.NewAsymmetric(2), naming.NewAsymmetric(6)
	for _, tc := range []struct {
		name   string
		pr     core.Protocol
		trials int
		sup    Supervision
		every  int // progress period
		traced bool
		mk     func(trial, attempt int) Trial
		want   string // a record every journal of the case holds
	}{
		{
			name: "faults", pr: asym6, trials: 12,
			sup:   Supervision{StepBudget: 300_000, Slice: 300_000},
			every: 500,
			mk:    agent(asym6, 6, false, func(int) *fault.Plan { return corrupt }),
			want:  `"kind":"corrupt"`,
		},
		{
			name: "retries", pr: asym2, trials: 8,
			sup: Supervision{StepBudget: 10_000_000, StallQuiet: 1024, Retries: 1, Slice: 4096},
			mk: agent(asym2, 2, true, func(attempt int) *fault.Plan {
				if attempt == 0 {
					return crash
				}
				return nil
			}),
			want: `"kind":"retry"`,
		},
		{
			name: "census", pr: mergeProto(), trials: 8,
			sup:   Supervision{StepBudget: 10_000_000},
			every: 2000,
			mk:    countTrials(40),
			want:  `"type":"census"`,
		},
		{
			name: "traced", pr: asym6, trials: 8,
			sup:    Supervision{StepBudget: 1_000_000, Slice: 1 << 10},
			traced: true,
			mk:     agent(asym6, 6, false, func(int) *fault.Plan { return nil }),
			want:   `"type":"span"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// journal runs the batch and returns its journal, with the
			// batch_summary's worker count dropped, and whether a helper
			// ran a trial.
			journal := func(workers int, served bool) (_ []byte, helped bool) {
				var buf bytes.Buffer
				sink := obs.NewJournalSink(&buf)
				sup := tc.sup
				if tc.traced {
					sup.Trace = obs.SpanContext{Trace: obs.NewTraceID(seed), Sink: forwardSink{sink}}
				}
				bo := BatchObs{Sink: sink, ProgressEvery: tc.every}
				if !served {
					RunBatch(context.Background(), tc.pr, 0, tc.trials, workers, sup, bo, tc.mk)
				} else {
					another := make(chan struct{})
					var once sync.Once
					mk := func(trial, attempt int) Trial {
						if trial == 0 && attempt == 0 {
							select {
							case <-another:
								helped = true
							case <-time.After(time.Second):
							}
						} else {
							once.Do(func() { close(another) })
						}
						return tc.mk(trial, attempt)
					}
					idle := make(chan func())
					ctx := WithIdle(context.Background(), idle)
					done := make(chan struct{})
					go func() {
						defer close(done)
						RunBatch(ctx, tc.pr, 0, tc.trials, workers, sup, bo, mk)
					}()
				serve:
					for {
						select {
						case work := <-idle:
							work()
						case <-done:
							break serve
						}
					}
				}
				if err := sink.Err(); err != nil {
					t.Fatal(err)
				}
				lines := bytes.SplitAfter(obs.Canonical(buf.Bytes()), []byte("\n"))
				for i, line := range lines {
					if bytes.Contains(line, []byte(`"type":"batch_summary"`)) {
						lines[i] = batchWorkersKey.ReplaceAll(line, nil)
					}
				}
				return bytes.Join(lines, nil), helped
			}
			want, _ := journal(1, false)
			if !bytes.Contains(want, []byte(tc.want)) {
				t.Fatalf("journal holds no %s record:\n%s", tc.want, want)
			}
			for _, workers := range []int{2, 3, 8} {
				if got, _ := journal(workers, false); !bytes.Equal(got, want) {
					t.Errorf("%d workers: journal differs from 1 worker's:\n--- 1 worker\n%s--- %d workers\n%s", workers, want, workers, got)
				}
			}
			helped := false
			for run := 0; run < 10 && !helped; run++ {
				var got []byte
				got, helped = journal(1, true)
				if !bytes.Equal(got, want) {
					t.Fatalf("1 worker and a helper: journal differs from 1 worker's:\n--- 1 worker\n%s--- with a helper\n%s", want, got)
				}
			}
			if !helped {
				t.Error("the helper ran no trial in 10 served runs")
			}
		})
	}
}
