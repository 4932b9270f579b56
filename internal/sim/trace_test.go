package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"popnaming/internal/fault"
	"popnaming/internal/obs"
)

// traceSwap runs one supervised swap trial with tracing into a buffer
// and returns the journal bytes.
func traceSwap(t *testing.T, seed int64, budget, slice int) string {
	t.Helper()
	var buf bytes.Buffer
	sup := Supervision{
		StepBudget: budget,
		Slice:      slice,
		Trace:      obs.SpanContext{Trace: obs.NewTraceID(seed), Sink: obs.NewJournalSink(&buf)},
	}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner {
		return swapPopulation(DeriveSeed(seed, 0, attempt))
	})
	if sr.Status != TrialOK {
		t.Fatalf("trial status %v", sr.Status)
	}
	return buf.String()
}

// TestSupervisedTraceDeterministic pins the tentpole span contract at
// the supervisor level: two identical seeded runs journal byte-identical
// span trees — IDs included — once the wall-clock fields are stripped.
func TestSupervisedTraceDeterministic(t *testing.T) {
	a := traceSwap(t, 7, 100_000, 1<<14)
	b := traceSwap(t, 7, 100_000, 1<<14)
	if !bytes.Equal(obs.Canonical([]byte(a)), obs.Canonical([]byte(b))) {
		t.Fatalf("same-seed span trees differ:\n--- a\n%s--- b\n%s", a, b)
	}
	if bytes.Equal(obs.Canonical([]byte(a)), obs.Canonical([]byte(traceSwap(t, 8, 100_000, 1<<14)))) {
		t.Fatal("different seeds produced identical span trees")
	}

	// Structure: 7 slice spans (100000 steps at slice 16384) under one
	// attempt span, every slice parented on the attempt.
	var spans []obs.SpanRec
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		var rec obs.SpanRec
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "span" {
			t.Fatalf("unexpected record type %q", rec.Type)
		}
		spans = append(spans, rec)
	}
	var attempts, slices int
	var attemptID string
	for _, rec := range spans {
		switch rec.Name {
		case "attempt":
			attempts++
			attemptID = rec.Span
		case "slice":
			slices++
		default:
			t.Fatalf("unexpected span name %q", rec.Name)
		}
	}
	if attempts != 1 || slices != 7 {
		t.Fatalf("got %d attempt, %d slice spans; want 1 and 7", attempts, slices)
	}
	// The attempt span is emitted last (End after the slices) and the
	// slices are its children.
	if last := spans[len(spans)-1]; last.Name != "attempt" {
		t.Fatalf("last span is %q, want attempt", last.Name)
	}
	for _, rec := range spans {
		if rec.Name == "slice" && rec.Parent != attemptID {
			t.Fatalf("slice parent %q != attempt span %q", rec.Parent, attemptID)
		}
	}
	// The attempt carries the final counters.
	final := spans[len(spans)-1]
	want := map[string]int64{"slices": 7, "steps": 100_000}
	for _, a := range final.Attrs {
		if w, ok := want[a.K]; ok && a.V != w {
			t.Fatalf("attempt attr %s = %d, want %d", a.K, a.V, w)
		}
	}
}

// TestSupervisedTraceFaultEvents pins fault injections surfacing as
// span events: a crash event planned at step 100 must appear on the
// attempt span with the step it actually fired at.
func TestSupervisedTraceFaultEvents(t *testing.T) {
	var buf bytes.Buffer
	plan, err := fault.Parse("@100:crash=1")
	if err != nil {
		t.Fatal(err)
	}
	sup := Supervision{
		StepBudget: 10_000,
		Slice:      1 << 10,
		Trace:      obs.SpanContext{Trace: obs.NewTraceID(3), Sink: obs.NewJournalSink(&buf)},
	}
	Supervise(context.Background(), sup, func(attempt int) *Runner {
		r := swapPopulation(DeriveSeed(3, 0, attempt))
		inj, err := fault.NewInjector(plan, r.Proto, DeriveSeed(3, 0, attempt))
		if err != nil {
			t.Fatal(err)
		}
		r.Inject = inj
		return r
	})
	var fired []obs.SpanEvent
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.SpanRec
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "attempt" {
			fired = append(fired, rec.Events...)
		}
	}
	if len(fired) != 1 {
		t.Fatalf("attempt span carries %d events, want 1: %+v", len(fired), fired)
	}
	if fired[0].Name != "crash" || fired[0].Step < 100 {
		t.Fatalf("fault event %+v, want crash at step >= 100", fired[0])
	}
}

// TestSupervisedNilTraceAllocs pins the disabled-tracing fast path with
// the budget-delta trick: doubling the step budget doubles the slice
// count, so if the per-slice path allocated anything the two counts
// would differ. The one-time allocations (runner, scheduler, rule
// table) cancel out.
func TestSupervisedNilTraceAllocs(t *testing.T) {
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(5, func() {
			sr := Supervise(context.Background(), Supervision{StepBudget: budget, Slice: 1 << 13},
				func(attempt int) *Runner { return swapPopulation(DeriveSeed(11, 0, attempt)) })
			if sr.Result.Converged {
				t.Fatal("swap population converged")
			}
		})
	}
	small, large := allocs(100_000), allocs(200_000)
	if small != large {
		t.Fatalf("per-slice allocation on the nil-trace path: %v allocs at 100k steps vs %v at 200k", small, large)
	}
}

// BenchmarkSupervisedNilTrace measures per-interaction supervised cost
// with tracing disabled — the regression gate against BENCH_PR5's
// BenchmarkSupervised (report: allocs must stay 0/op at large b.N).
func BenchmarkSupervisedNilTrace(b *testing.B) {
	b.ReportAllocs()
	sr := Supervise(context.Background(), Supervision{StepBudget: b.N, Slice: 1 << 15},
		func(attempt int) *Runner { return swapPopulation(1) })
	if sr.Result.Converged {
		b.Fatal("swap population converged")
	}
}

// BenchmarkSupervisedTraced is the same load with spans on (discard
// sink): the per-slice span cost amortized over 2^15 interactions.
func BenchmarkSupervisedTraced(b *testing.B) {
	b.ReportAllocs()
	sup := Supervision{
		StepBudget: b.N,
		Slice:      1 << 15,
		Trace:      obs.SpanContext{Trace: obs.NewTraceID(1), Sink: obs.Discard},
	}
	sr := Supervise(context.Background(), sup, func(attempt int) *Runner { return swapPopulation(1) })
	if sr.Result.Converged {
		b.Fatal("swap population converged")
	}
}
