package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"popnaming/internal/serve/store"
)

// flakyStore fails the second result-log append of one job, the first
// spill after its header: the run fails with the store's error, and
// the next spill, which carries the whole in-RAM tail, lands the
// complete log.
type flakyStore struct {
	JobStore
	mu      sync.Mutex
	failID  string
	appends int
}

func (f *flakyStore) AppendResults(id string, lines [][]byte) error {
	f.mu.Lock()
	if id == f.failID {
		f.appends++
	}
	fail := id == f.failID && f.appends == 2
	f.mu.Unlock()
	if fail {
		return errors.New("disk hiccup")
	}
	return f.JobStore.AppendResults(id, lines)
}

// finishedAnswers is everything the API answers about job id, by
// request: status and body of its view, its result stream with and
// without ?follow=false, a cancel, and its entry in the job list.
func finishedAnswers(t *testing.T, ts *httptest.Server, id string) map[string]string {
	t.Helper()
	do := func(method, path string) (int, []byte) {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	got := make(map[string]string)
	for name, path := range map[string]string{
		"GET /v1/jobs/{id}":                      "/v1/jobs/" + id,
		"GET /v1/jobs/{id}/results":              "/v1/jobs/" + id + "/results",
		"GET /v1/jobs/{id}/results?follow=false": "/v1/jobs/" + id + "/results?follow=false",
	} {
		code, body := do(http.MethodGet, path)
		got[name] = http.StatusText(code) + " " + string(body)
	}
	code, body := do(http.MethodPost, "/v1/jobs/"+id+"/cancel")
	got["POST /v1/jobs/{id}/cancel"] = http.StatusText(code) + " " + string(body)
	_, body = do(http.MethodGet, "/v1/jobs")
	var list struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, entry := range list.Jobs {
		var v JobView
		if err := json.Unmarshal(entry, &v); err != nil {
			t.Fatal(err)
		}
		if v.ID == id {
			got["GET /v1/jobs entry"] = string(entry)
		}
	}
	return got
}

// TestFinishedJobAnswersSame pins that a finished job answers the same
// wherever the server keeps it: right after it finishes, and after a
// WAL restart rebuilds the server from the store. Five kinds of
// finished job: done; failed (a result spill failed mid-run); canceled
// while queued; canceled while running; and a shard job a coordinator
// kept for a completed lease. Each answer is captured once the job's
// result stream has reached EOF, when the job is sealed.
func TestFinishedJobAnswersSame(t *testing.T) {
	dir := t.TempDir()
	w1, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, peer := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	cfg := Config{Workers: 1, QueueCap: 8, BufferBytes: 1, Peers: []string{peer.URL}, LeaseTrials: 2}
	// The first job admitted is j000001: a spill of it fails.
	cfg.Store = &flakyStore{JobStore: w1, failID: "j000001"}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	submit := func(spec Spec) string {
		t.Helper()
		code, v, e, _ := postJob(t, ts1, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d, error %+v", code, e)
		}
		return v.ID
	}
	kinds := map[string]string{}
	before := map[string]map[string]string{}
	// sealed captures a finished job's answers and checks its view
	// against its stream, whose terminal record the job wrote as it
	// finished: state, error, wall clock and record count agree, and
	// only a job canceled while queued has no summary.
	sealed := func(kind, id string, want JobState) {
		t.Helper()
		lines := streamLines(t, ts1, id) // to EOF: the job is sealed
		var rec JobRec
		if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
			t.Fatal(err)
		}
		v := getView(t, ts1, id)
		if v.State != want || string(v.State) != rec.State || v.Error != rec.Error ||
			v.WallNS != rec.WallNS || v.Records != len(lines) || v.Trace != rec.Trace {
			t.Fatalf("%s job %s: view %+v, want state %q and its terminal record %+v over %d records",
				kind, id, v, want, rec, len(lines))
		}
		if (v.Summary == nil) != (kind == "canceled while queued") || v.IdempotencyKey == "" {
			t.Fatalf("%s job %s: summary %+v, key %q", kind, id, v.Summary, v.IdempotencyKey)
		}
		kinds[id] = kind
		before[id] = finishedAnswers(t, ts1, id)
	}

	failed := submit(quickSpec(1))
	sealed("failed", failed, StateFailed)
	sealed("done", submit(quickSpec(2)), StateDone)

	running := submit(longRunningSpec())
	waitState(t, ts1, running, StateRunning, 10*time.Second)
	queuedSpec := longRunningSpec()
	queuedSpec.Seed++
	queued := submit(queuedSpec)
	for _, id := range []string{queued, running} {
		resp, err := http.Post(ts1.URL+"/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sealed("canceled while queued", queued, StateCanceled)
	sealed("canceled while running", running, StateCanceled)

	batch := submit(distSpec())
	streamLines(t, ts1, batch)
	var shard string
	for _, v := range listJobs(t, ts1) {
		if v.Shard != nil {
			shard = v.ID
			break
		}
	}
	if shard == "" {
		t.Fatal("the coordinator kept no shard job")
	}
	sealed("kept shard", shard, StateDone)
	if got := before[failed]["GET /v1/jobs/{id}"]; !bytes.Contains([]byte(got), []byte("disk hiccup")) {
		t.Fatalf("failed job's view does not carry the store error: %s", got)
	}
	ts1.Close()
	s1.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueCap: 8, Store: w2})
	for id, want := range before {
		got := finishedAnswers(t, ts2, id)
		for req, w := range want {
			if got[req] != w {
				t.Errorf("%s job %s, %s:\nfinished: %s\nrestored: %s", kinds[id], id, req, w, got[req])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s job %s: %d answers after the restart, want %d", kinds[id], id, len(got), len(want))
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops
// the body, so a handler benchmark counts the handler's own work.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// BenchmarkFinishedJobRead times a finished job's reads through the
// handler on a WAL store: its result stream (GET …/results) and its
// view (GET /v1/jobs/{id}). Both read the job back from the store.
func BenchmarkFinishedJobRead(b *testing.B) {
	w, err := store.OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	s, err := New(Config{Workers: 1, QueueCap: 4, Store: w})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body, err := json.Marshal(quickSpec(7))
	if err != nil {
		b.Fatal(err)
	}
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	loc := post.Header().Get("Location")
	// Reading the stream to EOF waits until the job is sealed.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, loc+"/results", nil))
	for _, bc := range []struct{ name, path string }{
		{"results", loc + "/results"},
		{"view", loc},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, bc.path, nil)
			rw := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rw.code = 0
				h.ServeHTTP(rw, req)
				if rw.code != http.StatusOK {
					b.Fatalf("GET %s: status %d", bc.path, rw.code)
				}
			}
		})
	}
}

// TestJobIDs pins the job ID format the finished-job index parses:
// jobID writes "j" and at least six digits, as fmt's "j%06d" does, and
// jobNumber reads back exactly what jobID writes.
func TestJobIDs(t *testing.T) {
	for _, n := range []uint32{1, 42, 999_999, 1_000_000, 1<<32 - 1} {
		id := jobID(n)
		if want := fmt.Sprintf("j%06d", n); id != want {
			t.Errorf("jobID(%d) = %q, want %q", n, id, want)
		}
		if got, ok := jobNumber(id); !ok || got != n {
			t.Errorf("jobNumber(%q) = %d, %v; want %d", id, got, ok, n)
		}
	}
	for _, id := range []string{"", "j", "j1", "j00001", "j0000001", "j000000", "x000001", "j+00001", "j00000a", "j4294967296"} {
		if n, ok := jobNumber(id); ok {
			t.Errorf("jobNumber(%q) = %d, want no job number", id, n)
		}
	}
}

// TestLookupDuringRetire polls jobs' views and streams while the jobs
// finish: a job moving from the live table to the finished-job index
// is found at every moment, never answered 404.
func TestLookupDuringRetire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		code, v, e, _ := postJob(t, ts, quickSpec(int64(100+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d, error %+v", code, e)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				var view JobView
				for _, path := range []string{"/v1/jobs/" + id + "/results?follow=false", "/v1/jobs/" + id} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode == http.StatusOK && path == "/v1/jobs/"+id {
						err = json.NewDecoder(resp.Body).Decode(&view)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || err != nil {
						t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
						return
					}
				}
				if view.State.terminal() {
					return
				}
			}
		}(v.ID)
	}
	wg.Wait()
}
