package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"popnaming/internal/obs"
)

// countSpec returns a spec the count engine accepts; rejection tests
// mutate one field at a time.
func countSpec() Spec {
	return Spec{
		Kind: KindSim, Protocol: "asym", P: 12, N: 10,
		Engine: "count", Seed: 7, Budget: 1_000_000,
	}
}

// TestCountAdmissionRejections pins the structured 400 contract: every
// identity-dependent feature on a count-engine job is rejected at
// admission with kind "count-incompatible" and the offending feature
// named in the error body.
func TestCountAdmissionRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	cases := []struct {
		name    string
		mutate  func(*Spec)
		feature string // expected Error.Feature; "" means kind "validation"
	}{
		{"campaign", func(sp *Spec) { sp.Kind = "campaign" }, ""},
		{"table1", func(sp *Spec) { sp.Kind = KindTable1; sp.Protocol = ""; sp.P = 0; sp.N = 0 }, "kind:table1"},
		{"faults", func(sp *Spec) { sp.Faults = "@conv:corrupt=2" }, "faults"},
		{"deadline", func(sp *Spec) { sp.DeadlineMS = 1000 }, "supervision"},
		{"retries", func(sp *Spec) { sp.Retries = 1 }, "supervision"},
		{"stall", func(sp *Spec) { sp.Stall = 100 }, "supervision"},
		{"roundrobin", func(sp *Spec) { sp.Sched = "roundrobin" }, "sched:roundrobin"},
		{"matching", func(sp *Spec) { sp.Sched = "matching" }, "sched:matching"},
		{"arbitrary", func(sp *Spec) { sp.Init = "arbitrary" }, "init:arbitrary"},
		{"badengine", func(sp *Spec) { sp.Engine = "warp" }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := countSpec()
			c.mutate(&sp)
			code, _, e, _ := postJob(t, ts, sp)
			if code != http.StatusBadRequest || e == nil {
				t.Fatalf("status %d, error %+v; want 400 with body", code, e)
			}
			if c.feature != "" {
				if e.Kind != "count-incompatible" {
					t.Errorf("kind = %q, want count-incompatible", e.Kind)
				}
				if e.Feature != c.feature {
					t.Errorf("feature = %q, want %q", e.Feature, c.feature)
				}
			} else if e.Kind != "validation" {
				t.Errorf("kind = %q, want validation", e.Kind)
			}
		})
	}
}

// TestCountSimJob runs a count sim job end to end: the stream header
// carries the engine, census records follow progress, and the summary
// reports a converged, correctly named population.
func TestCountSimJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.ProgressEvery = 1000
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	if v.Engine != "count" {
		t.Fatalf("view engine=%q", v.Engine)
	}
	done := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if done.Summary == nil || !done.Summary.OK || !done.Summary.Converged || !done.Summary.ValidNaming {
		t.Fatalf("summary = %+v", done.Summary)
	}
	lines := streamLines(t, ts, v.ID)
	var hdr obs.Header
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != "count" || hdr.Scheduler != "random" || hdr.Init != "zero" {
		t.Fatalf("header engine=%q scheduler=%q init=%q", hdr.Engine, hdr.Scheduler, hdr.Init)
	}
	census := 0
	for _, l := range lines {
		if strings.Contains(string(l), `"type":"census"`) {
			census++
		}
	}
	if census == 0 {
		t.Fatal("stream has no census records")
	}
}

// TestCountSimJobCancel pins the cancel reason on the count engine: a
// count sim job canceled mid-run reports aborted/canceled, as agent
// sim jobs and batch trials on both engines do. With N > P the
// population can never fall silent, so only the cancel ends the run.
func TestCountSimJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.P, sp.N, sp.Budget = 8, 1_000_000, 1<<40
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	waitState(t, ts, v.ID, StateRunning, 10*time.Second)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitState(t, ts, v.ID, StateCanceled, 30*time.Second)
	if final.Summary == nil || final.Summary.Status != "aborted" || final.Summary.Reason != "canceled" {
		t.Fatalf("canceled count sim summary = %+v, want aborted/canceled", final.Summary)
	}
}

// TestCountBatchJob runs a count batch job and checks the aggregate
// summary plus the closing batch_summary record.
func TestCountBatchJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.Kind = KindBatch
	sp.Trials = 6
	sp.Workers = 2
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	done := waitState(t, ts, v.ID, StateDone, 60*time.Second)
	if done.Summary == nil || !done.Summary.OK || done.Summary.TrialsConverged != 6 {
		t.Fatalf("summary = %+v", done.Summary)
	}
	lines := streamLines(t, ts, v.ID)
	batchSummaries := 0
	for _, l := range lines {
		if strings.Contains(string(l), `"type":"batch_summary"`) {
			batchSummaries++
		}
	}
	if batchSummaries != 1 {
		t.Fatalf("got %d batch_summary records, want 1", batchSummaries)
	}
}

// TestCountLargeN pins the service-level headline: a count job with N
// far beyond both P and the agent engine's practical range is admitted
// and runs (the same N would be rejected for an agent-engine job).
func TestCountLargeN(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	sp := countSpec()
	sp.N = 50_000_000
	sp.Budget = 200_000
	code, v, e, _ := postJob(t, ts, sp)
	if code != http.StatusAccepted {
		t.Fatalf("status %d, error %+v", code, e)
	}
	done := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if done.Summary == nil || done.Summary.Status != "ok" {
		t.Fatalf("summary = %+v", done.Summary)
	}

	// The identical spec on the agent engine is over the N ≤ P bound.
	sp.Engine = ""
	if code, _, e, _ := postJob(t, ts, sp); code != http.StatusBadRequest || e == nil {
		t.Fatalf("agent job at N=5e7: status %d, error %+v", code, e)
	}
}
