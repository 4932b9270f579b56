package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"popnaming/internal/sim"
)

// newTestServer starts a Server behind httptest and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a spec and decodes the response; it returns the
// status code, the job view (2xx) and the error body (non-2xx).
func postJob(t *testing.T, ts *httptest.Server, spec Spec) (int, JobView, *Error, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
		return resp.StatusCode, v, nil, resp.Header
	}
	var e struct {
		Error *Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return resp.StatusCode, JobView{}, e.Error, resp.Header
}

// getView fetches GET /v1/jobs/{id}.
func getView(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls a job until it reaches the wanted state or the
// deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState, deadline time.Duration) JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		v := getView(t, ts, id)
		if v.State == want {
			return v
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s stuck in state %q (want %q)", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamLines reads the job's full NDJSON result stream (following
// until the job is terminal).
func streamLines(t *testing.T, ts *httptest.Server, id string) [][]byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content-type %q", ct)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// wallClockKeys are the journal fields excluded from the determinism
// contract (docs/observability.md); canonicalize drops them before
// comparing record streams.
var wallClockKeys = []string{"elapsedNs", "wallNs", "utilization", "nodesPerSec", "durNs", "queueWaitNs"}

// canonicalize re-marshals a record line with wall-clock fields
// dropped and keys sorted (Go's map marshaling), giving a
// deterministic byte form.
func canonicalize(t *testing.T, line []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("bad record line %q: %v", line, err)
	}
	for _, k := range wallClockKeys {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// recType extracts a record line's type field.
func recType(t *testing.T, line []byte) string {
	t.Helper()
	var m struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("bad record line %q: %v", line, err)
	}
	return m.Type
}

// TestJobDeterminism pins the service determinism contract: an
// identical seeded batch job submitted over HTTP yields byte-identical
// result records (modulo wall-clock fields and the service-only
// header/job records) to the equivalent direct library run.
func TestJobDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	spec := Spec{
		Kind: KindBatch, Protocol: "asym", P: 4, N: 4,
		Seed: 7, Trials: 3, Workers: 1, Budget: 200_000,
	}
	status, view, _, _ := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if view.Seed != 7 || view.SeedDerived {
		t.Fatalf("seed echo: got seed=%d derived=%v, want 7/false", view.Seed, view.SeedDerived)
	}
	if view.Sched != "random" || view.Init != "zero" {
		t.Fatalf("defaults not echoed: sched=%q init=%q", view.Sched, view.Init)
	}
	lines := streamLines(t, ts, view.ID)
	final := waitState(t, ts, view.ID, StateDone, 30*time.Second)
	if final.Summary == nil || !final.Summary.OK {
		t.Fatalf("batch did not converge cleanly: %+v", final.Summary)
	}

	// The direct equivalent: same protocol instance, same trial-seed
	// recipe, same supervision, journaling into a local buffer.
	spec2, verr := prepare(spec)
	if verr != nil {
		t.Fatal(verr)
	}
	pr := spec2.proto
	buf := newBuffer(0, nil, nil, nil)
	sup := sim.Supervision{StepBudget: spec.Budget, Sink: buf}
	sim.RunBatchSupervised(context.Background(), pr, spec.Trials, 1, sup,
		sim.BatchObs{Sink: buf}, func(trial, attempt int) sim.Trial {
			seed := sim.DeriveSeed(spec.Seed, trial, attempt)
			cfg, err := buildConfig(pr, spec.N, "zero", seed)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := buildScheduler(pr, spec.N, "random", seed+1)
			if err != nil {
				t.Fatal(err)
			}
			return sim.Trial{Cfg: cfg, Sched: sc}
		})
	direct, err := buf.all()
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, line := range lines {
		switch recType(t, line) {
		case "header", "job":
			// Service-only envelope records.
		default:
			got = append(got, canonicalize(t, line))
		}
	}
	var want []string
	for _, line := range direct {
		want = append(want, canonicalize(t, bytes.TrimSuffix(line, []byte("\n"))))
	}
	if len(got) != len(want) {
		t.Fatalf("record count mismatch: service %d, direct %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d differs:\nservice: %s\ndirect:  %s", i, got[i], want[i])
		}
	}

	// The stream must carry the service header first and the terminal
	// job record last.
	if recType(t, lines[0]) != "header" {
		t.Errorf("first record is %q, want header", recType(t, lines[0]))
	}
	if recType(t, lines[len(lines)-1]) != "job" {
		t.Errorf("last record is %q, want job", recType(t, lines[len(lines)-1]))
	}
}

// longRunningSpec is a sim job that cannot converge (a pending
// far-future fault event suppresses silence detection) and so runs
// until its huge budget — or a cancel — stops it.
func longRunningSpec() Spec {
	return Spec{
		Kind: KindSim, Protocol: "asym", P: 4, N: 4,
		Seed: 3, Budget: 1 << 38, Faults: "@999999999999:corrupt=1",
	}
}

// TestCancelRunningJob pins the cancellation path: POST cancel against
// a running job drives it to a terminal canceled state promptly
// (within one supervision slice), with partial results intact.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, view, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, view.ID, StateRunning, 10*time.Second)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+view.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitState(t, ts, view.ID, StateCanceled, 30*time.Second)
	if final.Summary == nil || final.Summary.Status != "aborted" || final.Summary.Reason != "canceled" {
		t.Fatalf("canceled job summary = %+v, want aborted/canceled", final.Summary)
	}
	// The stream is closed with the partial records plus the terminal
	// job record.
	lines := streamLines(t, ts, view.ID)
	if len(lines) < 2 {
		t.Fatalf("canceled job streamed %d records, want >= 2", len(lines))
	}
	last := lines[len(lines)-1]
	var rec JobRec
	if err := json.Unmarshal(last, &rec); err != nil || rec.Type != "job" || rec.State != string(StateCanceled) {
		t.Fatalf("terminal record %s (err %v)", last, err)
	}
}

// TestCancelQueuedJob pins immediate cancellation of a job that never
// started: it goes terminal without waiting for a worker.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	// Occupy the single worker first.
	status, blocker, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, blocker.ID, StateRunning, 10*time.Second)
	status, queued, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if v := getView(t, ts, queued.ID); v.State != StateQueued {
		t.Fatalf("second job state %q, want queued", v.State)
	}
	j, _ := s.Job(queued.ID)
	s.Cancel(j)
	final := waitState(t, ts, queued.ID, StateCanceled, 5*time.Second)
	if final.Error != "canceled while queued" {
		t.Fatalf("queued-cancel error %q", final.Error)
	}
	// Its stream terminates immediately with just the job record.
	lines := streamLines(t, ts, queued.ID)
	if len(lines) != 1 || recType(t, lines[0]) != "job" {
		t.Fatalf("queued-canceled stream: %d records", len(lines))
	}
}

// TestQueueFullRejects pins the backpressure contract: a submission
// beyond the queue capacity answers 429 with a Retry-After header and
// a structured body, and admits again once capacity frees.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	status, running, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)
	status, queued, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("second submit status %d (queue should hold it)", status)
	}
	status, _, jerr, hdr := postJob(t, ts, longRunningSpec())
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", status)
	}
	if jerr == nil || jerr.Kind != "queue-full" {
		t.Fatalf("429 body: %+v", jerr)
	}
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if jerr.RetryAfterSec < 1 || fmt.Sprintf("%d", jerr.RetryAfterSec) != ra {
		t.Fatalf("Retry-After %q vs body %d", ra, jerr.RetryAfterSec)
	}
	// Freeing capacity re-admits. Canceling the queued job marks it
	// terminal, but its queue slot is only reclaimed when the worker
	// pops it — so the running job must be canceled too.
	j, _ := s.Job(queued.ID)
	s.Cancel(j)
	waitState(t, ts, queued.ID, StateCanceled, 10*time.Second)
	j, _ = s.Job(running.ID)
	s.Cancel(j)
	waitState(t, ts, running.ID, StateCanceled, 30*time.Second)
	// The worker drains the queued (already canceled) job next;
	// admission may still race that pop, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _, _ = postJob(t, ts, longRunningSpec())
		if status == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never re-admitted (last status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStructuredBadRequest pins the admission errors: a malformed
// fault plan is rejected with the parser's kind/offset/token, and
// registry/validation failures carry a message.
func TestStructuredBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	status, _, jerr, _ := postJob(t, ts, Spec{
		Kind: KindSim, Protocol: "asym", P: 4,
		Faults: "@0:omit=1 @x:corrupt",
	})
	if status != http.StatusBadRequest {
		t.Fatalf("bad-faults status %d", status)
	}
	if jerr.Kind != "trigger" || jerr.Offset != 10 || jerr.Token != "@x:corrupt" {
		t.Fatalf("bad-faults body = %+v, want trigger/10/@x:corrupt", jerr)
	}

	status, _, jerr, _ = postJob(t, ts, Spec{Kind: KindSim, Protocol: "nosuch"})
	if status != http.StatusBadRequest || jerr.Kind != "validation" {
		t.Fatalf("unknown protocol: status %d body %+v", status, jerr)
	}
	if !strings.Contains(jerr.Message, "nosuch") {
		t.Fatalf("unknown-protocol message %q", jerr.Message)
	}

	// A leader fault against a leaderless protocol fails the
	// capability check.
	status, _, jerr, _ = postJob(t, ts, Spec{
		Kind: KindSim, Protocol: "asym", P: 4, Faults: "@0:leader",
	})
	if status != http.StatusBadRequest || jerr.Kind != "validation" {
		t.Fatalf("capability: status %d body %+v", status, jerr)
	}

	// Unknown JSON fields are rejected, not ignored.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sim","protocol":"asym","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status %d", resp.StatusCode)
	}
}

// TestPrepareDefaults spot-checks admission defaults and bounds.
func TestPrepareDefaults(t *testing.T) {
	v, err := prepare(Spec{Kind: KindBatch, Protocol: "asym", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp := v.spec
	if sp.P != 8 || sp.N != 8 || sp.Trials != 10 || sp.Workers != 1 ||
		sp.Budget != 50_000_000 || sp.Sched != "random" || sp.Init != "zero" {
		t.Fatalf("defaults: %+v", sp)
	}
	if _, err := prepare(Spec{Kind: KindSim, Protocol: "asym", Trials: 2}); err == nil {
		t.Fatal("sim with trials=2 accepted")
	}
	if _, err := prepare(Spec{Kind: KindTable1, Protocol: "asym"}); err == nil {
		t.Fatal("table1 with protocol accepted")
	}
	if _, err := prepare(Spec{Kind: KindCampaign, Protocol: "initleader"}); err == nil {
		t.Fatal("campaign on a protocol without arbitrary init accepted")
	}
	if _, err := prepare(Spec{Kind: KindBatch, Protocol: "initleader", Init: "arbitrary"}); err == nil {
		t.Fatal("arbitrary init on a protocol without RandomMobile accepted")
	}
	if _, err := prepare(Spec{Kind: KindBatch, Protocol: "asym", Init: "bogus"}); err == nil {
		t.Fatal("unknown init key accepted")
	}
	v, err = prepare(Spec{Kind: KindSim, Protocol: "asym"})
	if err != nil {
		t.Fatal(err)
	}
	if v.spec.Seed == 0 || !v.seedDerived {
		t.Fatalf("seed not auto-derived: %+v", v.spec)
	}
}

// TestCampaignJob runs a small campaign end to end and checks the
// campaign record closes the stream.
func TestCampaignJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 4})
	status, view, _, _ := postJob(t, ts, Spec{
		Kind: KindCampaign, Protocol: "asym", P: 4, N: 4,
		Seed: 11, Trials: 2, Epochs: 1, CorruptK: 1, Workers: 2,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	lines := streamLines(t, ts, view.ID)
	final := waitState(t, ts, view.ID, StateDone, 60*time.Second)
	if final.Summary == nil || !final.Summary.OK || final.Summary.Trials != 2 {
		t.Fatalf("campaign summary %+v", final.Summary)
	}
	sawCampaign := false
	for _, line := range lines {
		if recType(t, line) == "campaign" {
			sawCampaign = true
		}
	}
	if !sawCampaign {
		t.Fatal("stream has no campaign record")
	}
}

// TestDrain pins graceful shutdown: draining rejects new submissions
// with 503, finishes in-flight jobs, and leaves finished streams
// readable.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	status, view, _, _ := postJob(t, ts, Spec{
		Kind: KindSim, Protocol: "asym", P: 4, N: 4, Seed: 2, Budget: 100_000,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
	status, _, jerr, _ := postJob(t, ts, Spec{Kind: KindSim, Protocol: "asym", P: 4})
	if status != http.StatusServiceUnavailable || jerr.Kind != "draining" {
		t.Fatalf("post-drain submit: status %d body %+v", status, jerr)
	}
	final := getView(t, ts, view.ID)
	if final.State != StateDone {
		t.Fatalf("job not finished by drain: %q", final.State)
	}
	if lines := streamLines(t, ts, view.ID); len(lines) < 2 {
		t.Fatalf("post-drain stream: %d records", len(lines))
	}
}

// TestDrainCancelsOnExpiredGrace pins drain escalation: when the grace
// context expires, in-flight jobs are canceled instead of running to
// their budgets, and Drain still returns with every job terminal.
func TestDrainCancelsOnExpiredGrace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, view, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, view.ID, StateRunning, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.Drain(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return after grace expiry")
	}
	final := getView(t, ts, view.ID)
	if final.State != StateCanceled {
		t.Fatalf("job state after expired grace: %q, want canceled", final.State)
	}
}

// TestMetricsEndpoint smoke-tests the /metrics rendering: the tables
// are present and count the submitted job.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, view, _, _ := postJob(t, ts, Spec{
		Kind: KindSim, Protocol: "asym", P: 4, N: 4, Seed: 2, Budget: 100_000,
	})
	if status != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	waitState(t, ts, view.ID, StateDone, 30*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"ppserved service", "jobs by state", "http requests", "simulation totals",
		"jobs_submitted", "POST /v1/jobs", "trials_converged",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthz checks liveness and the draining transition.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Fatalf("healthz %v", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h["status"] != "draining" {
		t.Fatalf("post-drain healthz %v", h)
	}
}

// TestReadyz pins the readiness probe: ready while idle, 503
// "saturated" once the queue reaches the high-watermark, 503
// "draining" after drain starts — distinct from /healthz, which stays
// 200 throughout.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, HighWater: 1})
	if code, status := probe(t, ts.URL+"/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("idle readyz: %d %q", code, status)
	}

	// Occupy the single worker; the queue itself stays empty, so the
	// server is still ready.
	status, blocker, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, blocker.ID, StateRunning, 10*time.Second)
	if code, st := probe(t, ts.URL+"/readyz"); code != http.StatusOK || st != "ready" {
		t.Fatalf("busy-but-empty readyz: %d %q", code, st)
	}

	// One queued job reaches the high-watermark: unready, but alive and
	// still admitting (readiness trips before the 429 backpressure).
	status, queued, _, _ := postJob(t, ts, longRunningSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if v := getView(t, ts, queued.ID); v.State != StateQueued {
		t.Fatalf("second job state %q, want queued", v.State)
	}
	if code, st := probe(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || st != "saturated" {
		t.Fatalf("saturated readyz: %d %q", code, st)
	}
	if code, st := probe(t, ts.URL+"/healthz"); code != http.StatusOK || st != "ok" {
		t.Fatalf("saturated healthz: %d %q", code, st)
	}

	// Draining wins over saturation as the unready reason.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	if code, st := probe(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || st != "draining" {
		t.Fatalf("draining readyz: %d %q", code, st)
	}
}

// probe GETs a JSON endpoint and returns the status code and the
// decoded body's "status" field.
func probe(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Status
}

// TestSIGTERMDrain builds and runs the real ppserved binary, submits a
// job, sends SIGTERM and verifies the readiness flip — /readyz turns
// 503 while /healthz stays 200 for the duration of the drain — and a
// clean exit 0 with the service journal flushed: the production
// shutdown path end to end.
func TestSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ppserved")
	build := exec.Command("go", "build", "-o", bin, "popnaming/cmd/ppserved")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	journal := filepath.Join(dir, "service.jsonl")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-journal", journal, "-grace", "3s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Parse "ppserved: listening on 127.0.0.1:PORT (...)".
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line (scan err %v)", sc.Err())
	}
	// Keep draining the subprocess stdout so it never blocks on a full
	// pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":2,"budget":100000}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait for the job to finish, then SIGTERM.
	deadline := time.Now().Add(20 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		_ = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if v.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Park a long-running job on the single worker so SIGTERM has a
	// drain window to observe the probes in.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":3,"budget":274877906944,"faults":"@999999999999:corrupt=1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Before the signal both probes answer 200.
	if code, status := probe(t, base+"/healthz"); code != http.StatusOK || status != "ok" {
		t.Fatalf("pre-drain healthz: %d %q", code, status)
	}
	if code, status := probe(t, base+"/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("pre-drain readyz: %d %q", code, status)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness must flip to 503 "draining" promptly, while liveness
	// keeps answering 200 (status "draining") until the process exits.
	flipDeadline := time.Now().Add(5 * time.Second)
	for {
		code, status := probe(t, base+"/readyz")
		if code == http.StatusServiceUnavailable {
			if status != "draining" {
				t.Fatalf("draining readyz status %q", status)
			}
			break
		}
		if time.Now().After(flipDeadline) {
			t.Fatalf("readyz never flipped to 503 (last %d %q)", code, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, status := probe(t, base+"/healthz"); code != http.StatusOK || status != "draining" {
		t.Fatalf("draining healthz: %d %q", code, status)
	}

	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("ppserved exited non-zero: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ppserved did not exit after SIGTERM")
	}

	// The flushed journal holds the job's lifecycle records.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec JobRec
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if rec.Type == "job" && rec.ID == view.ID {
			states = append(states, rec.State)
		}
	}
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("journal job states %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("journal job states %v, want %v", states, want)
		}
	}
}
