package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"popnaming/internal/obs"
)

// runTraced submits a spec, streams it to completion and returns the
// terminal view plus the stream lines.
func runTraced(t *testing.T, ts *httptest.Server, spec Spec) (JobView, [][]byte) {
	t.Helper()
	status, view, _, _ := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	lines := streamLines(t, ts, view.ID)
	final := waitState(t, ts, view.ID, StateDone, 60*time.Second)
	return final, lines
}

// spanRecs decodes the span records of a stream, in order.
func spanRecs(t *testing.T, lines [][]byte) []obs.SpanRec {
	t.Helper()
	var spans []obs.SpanRec
	for _, line := range lines {
		if recType(t, line) != "span" {
			continue
		}
		var rec obs.SpanRec
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, rec)
	}
	return spans
}

// TestTracedJobDeterminism pins the tracing contract at the service:
// the same seeded job run twice yields byte-identical span trees — IDs
// included — modulo the wall-clock fields and the "job" lifecycle
// records. Batches on either engine get one trial span per trial.
func TestTracedJobDeterminism(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"agent", Spec{
			Kind: KindBatch, Protocol: "asym", P: 4, N: 4,
			Seed: 7, Trials: 3, Workers: 1, Budget: 200_000, Trace: true,
		}},
		{"count", Spec{
			Kind: KindBatch, Protocol: "asym", P: 4, N: 10_000, Engine: "count",
			Seed: 7, Trials: 3, Workers: 1, Budget: 20_000, Trace: true,
		}},
	} {
		t.Run(c.name, func(t *testing.T) { checkTracedDeterminism(t, c.spec) })
	}
}

func checkTracedDeterminism(t *testing.T, spec Spec) {
	// Each run gets a fresh server: on one server the second submission
	// would be a cache hit, answered by the first run itself.
	run := func(spec Spec) (JobView, [][]byte) {
		_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
		return runTraced(t, ts, spec)
	}
	viewA, linesA := run(spec)
	viewB, linesB := run(spec)

	wantTrace := obs.NewTraceID(7).String()
	if viewA.Trace != wantTrace || viewB.Trace != wantTrace {
		t.Fatalf("view trace IDs %q/%q, want %q", viewA.Trace, viewB.Trace, wantTrace)
	}

	a, b := canonRecords(t, linesA, "job"), canonRecords(t, linesB, "job")
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across same-seed runs:\nfirst:  %s\nsecond: %s", i, a[i], b[i])
		}
	}

	// The stream opens header, then the sealed queue span, and closes
	// root span, then terminal job record.
	if recType(t, linesA[0]) != "header" {
		t.Fatalf("first record %q, want header", recType(t, linesA[0]))
	}
	spans := spanRecs(t, linesA)
	if len(spans) == 0 {
		t.Fatal("traced stream has no span records")
	}
	if spans[0].Name != "queue" {
		t.Fatalf("first span %q, want queue", spans[0].Name)
	}
	if recType(t, linesA[1]) != "span" {
		t.Fatalf("second record %q, want the queue span", recType(t, linesA[1]))
	}
	last := linesA[len(linesA)-1]
	if recType(t, last) != "job" {
		t.Fatalf("last record %q, want job", recType(t, last))
	}
	if prev := linesA[len(linesA)-2]; recType(t, prev) != "span" {
		t.Fatalf("second-to-last record %q, want the root span", recType(t, prev))
	} else if spans[len(spans)-1].Name != "job" {
		t.Fatalf("final span %q, want job", spans[len(spans)-1].Name)
	}

	// The header and the terminal job record both carry the trace ID.
	var hdr obs.Header
	if err := json.Unmarshal(linesA[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Trace != wantTrace {
		t.Fatalf("header trace %q, want %q", hdr.Trace, wantTrace)
	}
	var term JobRec
	if err := json.Unmarshal(last, &term); err != nil {
		t.Fatal(err)
	}
	if term.Trace != wantTrace {
		t.Fatalf("terminal job record trace %q, want %q", term.Trace, wantTrace)
	}
	if term.QueueWaitNS <= 0 {
		t.Fatalf("terminal job record queueWaitNs %d, want > 0", term.QueueWaitNS)
	}

	// One trial span per trial, indexed by its trial.
	trials := make(map[int]bool)
	for _, sp := range spans {
		if sp.Name == "trial" {
			if trials[sp.Trial] {
				t.Fatalf("trial %d has two trial spans", sp.Trial)
			}
			trials[sp.Trial] = true
		}
	}
	if len(trials) != spec.Trials {
		t.Fatalf("%d trial spans, want one per trial (%d)", len(trials), spec.Trials)
	}

	// Every trace ID matches and every parent resolves to an emitted
	// span (the roots have none).
	ids := make(map[string]bool, len(spans))
	for _, sp := range spans {
		ids[sp.Span] = true
	}
	for _, sp := range spans {
		if sp.Trace != wantTrace {
			t.Fatalf("span %s trace %q, want %q", sp.Span, sp.Trace, wantTrace)
		}
		if sp.Parent != "" && !ids[sp.Parent] {
			t.Fatalf("span %s (%s) has unresolved parent %q", sp.Span, sp.Name, sp.Parent)
		}
	}

	// An untraced job emits no spans and no trace IDs — tracing is
	// strictly opt-in (TestJobDeterminism depends on it).
	untraced := spec
	untraced.Trace = false
	viewC, linesC := run(untraced)
	if viewC.Trace != "" {
		t.Fatalf("untraced view trace %q", viewC.Trace)
	}
	if n := len(spanRecs(t, linesC)); n != 0 {
		t.Fatalf("untraced stream has %d span records", n)
	}
}

// TestTracedSimSpanTree pins the span-tree shape of a traced sim job
// with fault injection: job -> queue plus job -> attempt -> slice, the
// injected fault surfacing as an event on the attempt span.
func TestTracedSimSpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	spec := Spec{
		Kind: KindSim, Protocol: "asym", P: 4, N: 4,
		Seed: 5, Budget: 200_000, Faults: "@1000:corrupt=1", Trace: true,
	}
	_, lines := runTraced(t, ts, spec)
	spans := spanRecs(t, lines)

	byName := make(map[string][]obs.SpanRec)
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["job"]) != 1 || len(byName["queue"]) != 1 {
		t.Fatalf("want exactly one job and one queue span, got %d/%d", len(byName["job"]), len(byName["queue"]))
	}
	if len(byName["attempt"]) < 1 || len(byName["slice"]) < 1 {
		t.Fatalf("want attempt and slice spans, got %d/%d", len(byName["attempt"]), len(byName["slice"]))
	}
	root, queue := byName["job"][0], byName["queue"][0]
	if root.Parent != "" {
		t.Fatalf("job span has parent %q", root.Parent)
	}
	if queue.Parent != root.Span {
		t.Fatalf("queue span parent %q, want job span %q", queue.Parent, root.Span)
	}
	attemptIDs := make(map[string]bool)
	for _, sp := range byName["attempt"] {
		if sp.Parent != root.Span {
			t.Fatalf("attempt span parent %q, want job span %q", sp.Parent, root.Span)
		}
		attemptIDs[sp.Span] = true
	}
	for _, sp := range byName["slice"] {
		if !attemptIDs[sp.Parent] {
			t.Fatalf("slice span parent %q is not an attempt span", sp.Parent)
		}
	}
	var fired []obs.SpanEvent
	for _, sp := range byName["attempt"] {
		fired = append(fired, sp.Events...)
	}
	if len(fired) != 1 || fired[0].Name != "corrupt" || fired[0].Step < 1000 {
		t.Fatalf("attempt span events %+v, want one corrupt at step >= 1000", fired)
	}
	if root.QueueWaitNS <= 0 {
		t.Fatalf("root span queueWaitNs %d, want > 0", root.QueueWaitNS)
	}
}
