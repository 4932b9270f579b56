package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"popnaming/internal/serve/store"
)

// TestRetryAfterClamp pins the Retry-After advice bounds: an empty
// wall-time history answers the 1s floor, and a backlog of pathologically
// slow jobs cannot push the advice past the 300s ceiling.
func TestRetryAfterClamp(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.retryAfterSec(50); got != minRetryAfterSec {
		t.Fatalf("empty history: retryAfterSec = %d, want floor %d", got, minRetryAfterSec)
	}
	s.met.jobWallMS.Observe(10_000_000) // one ~3-hour job
	if got := s.retryAfterSec(1_000_000); got != maxRetryAfterSec {
		t.Fatalf("huge backlog: retryAfterSec = %d, want ceiling %d", got, maxRetryAfterSec)
	}

	// In between the clamps the estimate scales with backlog per worker.
	s2, err := New(Config{Workers: 2, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.met.jobWallMS.Observe(2000)
	if got := s2.retryAfterSec(3); got != 5 { // 2000ms * 4 / 2 workers / 1000 + 1
		t.Fatalf("midrange: retryAfterSec = %d, want 5", got)
	}
}

// TestResultsStreamStalledClient pins the slow-client guard: a reader
// that opens a results stream and never drains it must not pin the
// handler goroutine forever — the per-write deadline fires, the stream
// is dropped, and the timeout counter records it.
func TestResultsStreamStalledClient(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 4,
		StreamWriteTimeout: 200 * time.Millisecond})
	// A stream large enough to overflow the socket buffers between
	// server and a non-reading client (progress doubles the line count).
	spec := Spec{Kind: KindBatch, Protocol: "asym", P: 4, N: 4, Seed: 5,
		Trials: 4000, Workers: 4, Budget: 50_000, ProgressEvery: 1}
	code, v, e, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	waitState(t, ts, v.ID, StateDone, 60*time.Second)

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A tiny client receive buffer keeps the kernel from absorbing the
	// stream on the client side, so the server-side write blocks fast.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/results HTTP/1.1\r\nHost: stalled\r\n\r\n", v.ID)

	deadline := time.Now().Add(30 * time.Second)
	for s.met.streamWriteTimeouts.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write deadline never fired for the stalled reader")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failingStore wraps a working store with an AppendResults that always
// fails, modeling a dead disk under the result spill path.
type failingStore struct {
	*store.Memory
}

func (f *failingStore) AppendResults(id string, lines [][]byte) error {
	return fmt.Errorf("disk gone")
}

// TestStoreWriteFailureFailsJob pins WAL write-error hardening at the
// service level: when every result spill fails, the job must finish
// failed with a structured store error — not done with silently
// missing durability — and the write-error counter must record it.
func TestStoreWriteFailureFailsJob(t *testing.T) {
	fs := &failingStore{Memory: store.NewMemory()}
	// BufferBytes 1 forces a spill on every emitted record.
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		Store: fs, BufferBytes: 1})
	spec := Spec{Kind: KindBatch, Protocol: "asym", P: 4, N: 4,
		Seed: 7, Trials: 3, Workers: 1, Budget: 200_000}
	code, v, e, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	final := waitState(t, ts, v.ID, StateFailed, 30*time.Second)
	if !strings.Contains(final.Error, "disk gone") {
		t.Fatalf("job error %q, want the store failure surfaced", final.Error)
	}
	if s.met.storeWriteErrors.Value() == 0 {
		t.Fatal("store write errors not counted")
	}
}

// longRunningCountSpec is a count-engine job that never converges
// (N > P leaves unique naming unreachable) under an effectively
// unbounded budget — the count analog of longRunningSpec. The engine
// polls for cancellation every 2^14 steps.
func longRunningCountSpec() Spec {
	return Spec{
		Kind: KindSim, Protocol: "asym", P: 4, N: 1000,
		Engine: "count", Seed: 3, Budget: 1 << 38,
	}
}

// TestCountCancelRacePickup drives the cancel-while-queued vs
// worker-pickup race for the count engine (the counterpart of
// TestCancelRacePickup): every job must land terminal canceled in both
// the server's view and the store, whether the cancel beat the pickup
// or interrupted the count loop mid-run.
func TestCountCancelRacePickup(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rounds = 40
	jobs := make([]*Job, 0, rounds)
	for i := 0; i < rounds; i++ {
		j, jerr := s.Submit(longRunningCountSpec())
		if jerr != nil {
			t.Fatalf("submit %d: %v", i, jerr)
		}
		s.Cancel(j)
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range jobs {
		for {
			v := j.view()
			if v.State.terminal() {
				if v.State != StateCanceled {
					t.Fatalf("%s: terminal state %q, want canceled", j.ID, v.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck in %q", j.ID, v.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	snaps, err := s.store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != rounds {
		t.Fatalf("store holds %d jobs, want %d", len(snaps), rounds)
	}
	for _, snap := range snaps {
		if snap.State != store.StateCanceled {
			t.Fatalf("store snapshot %s: state %q, want canceled", snap.ID, snap.State)
		}
	}
}

// TestMetricsExposeRobustnessCounters pins that the write-error and
// stream-timeout counters appear in both /metrics formats, and that the
// two formats expose the same set: every Prometheus family names a row
// of the tables, and every table row names a Prometheus family.
func TestMetricsExposeRobustnessCounters(t *testing.T) {
	// A configured (never contacted) peer runs the check with sharded
	// execution on.
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4,
		Peers: []string{"http://127.0.0.1:1"}})
	bodies := make(map[string]string)
	for _, format := range []string{"", "?format=prometheus"} {
		resp, err := http.Get(ts.URL + "/metrics" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"store_write_errors", "stream_write_timeouts", "leases_issued", "lease_failures"} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("GET /metrics%s missing %q", format, want)
			}
		}
		bodies[format] = string(body)
	}

	// A table row's first cell is a family name, plus {label=value} for
	// a labeled series; header and rule rows are skipped.
	rows := make(map[string]bool)
	for _, line := range strings.Split(bodies[""], "\n") {
		cell, ok := strings.CutPrefix(line, "| ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(cell, " ")
		name, _, _ = strings.Cut(name, "{")
		if name != "metric" && !strings.HasPrefix(name, "-") {
			rows[name] = true
		}
	}
	for _, f := range parseProm(t, bodies["?format=prometheus"]) {
		if !rows[f.name] {
			t.Errorf("Prometheus family %q has no row in the tables", f.name)
		}
		delete(rows, f.name)
	}
	for name := range rows {
		t.Errorf("table row %q is not a Prometheus family", name)
	}
}
