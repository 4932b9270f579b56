package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"popnaming/internal/serve/store"
)

// quickSpec is a seeded sim job that finishes well inside its budget —
// the smallest job that exercises the full lifecycle.
func quickSpec(seed int64) Spec {
	return Spec{Kind: KindSim, Protocol: "asym", P: 4, N: 4, Seed: seed, Budget: 100_000}
}

// postJobKey is postJob with an Idempotency-Key request header.
func postJobKey(t *testing.T, ts *httptest.Server, spec Spec, key string) (int, JobView, *Error, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
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

// bufAll reads a buffer's whole logical log (store prefix + RAM tail)
// without waiting.
func bufAll(b *buffer) ([][]byte, error) {
	lines, _, err := b.wait(0, func() bool { return true })
	return lines, err
}

// TestLateEmitSentinel pins the post-seal emit contract: the buffer
// answers ErrLateEmit instead of silently appending, and the server
// wires that into the late_emits counter.
func TestLateEmitSentinel(t *testing.T) {
	late := 0
	m := store.NewMemory()
	b := newBuffer(0,
		func(lines [][]byte) error { return m.AppendResults("x", lines) },
		func(from, to int) ([][]byte, error) { return m.ReadResults("x", from, to) },
		func() { late++ })
	if err := b.Emit(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.seal(); err != nil {
		t.Fatal(err)
	}
	if err := b.Emit(map[string]int{"a": 2}); !errors.Is(err, ErrLateEmit) {
		t.Fatalf("emit after seal: err = %v, want ErrLateEmit", err)
	}
	if late != 1 {
		t.Fatalf("late hook ran %d times, want 1", late)
	}
	if b.len() != 1 {
		t.Fatalf("late emit changed the log: len %d, want 1", b.len())
	}

	// The server-wired buffer feeds the metric.
	s, err := New(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sb := s.newJobBuffer("j000099")
	if err := sb.seal(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Emit(map[string]int{"a": 3}); !errors.Is(err, ErrLateEmit) {
		t.Fatalf("server buffer late emit: err = %v", err)
	}
	if got := s.met.lateEmits.Value(); got != 1 {
		t.Fatalf("late_emits = %d, want 1", got)
	}
}

// TestBufferSpill pins the bounded-buffer contract: past the byte cap
// the in-RAM tail moves to the store, logical indexes stay stable, and
// readers see the full log in emit order through the fetch path.
func TestBufferSpill(t *testing.T) {
	m := store.NewMemory()
	b := newBuffer(64,
		func(lines [][]byte) error { return m.AppendResults("x", lines) },
		func(from, to int) ([][]byte, error) { return m.ReadResults("x", from, to) },
		func() {})
	const total = 20
	for i := 0; i < total; i++ {
		if err := b.Emit(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if b.len() != total {
		t.Fatalf("len = %d, want %d", b.len(), total)
	}
	spilled, err := m.ReadResults("x", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) == 0 {
		t.Fatal("nothing spilled despite the 64-byte cap")
	}
	if len(spilled) >= total {
		t.Fatalf("everything spilled pre-finalize: %d of %d", len(spilled), total)
	}
	all, err := bufAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("read %d lines, want %d", len(all), total)
	}
	for i, line := range all {
		var rec struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.I != i {
			t.Fatalf("line %d = %q (err %v), want i=%d", i, line, err, i)
		}
	}
	// seal pushes the rest out of RAM; the logical log is unchanged.
	if err := b.seal(); err != nil {
		t.Fatal(err)
	}
	spilled, err = m.ReadResults("x", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled) != total {
		t.Fatalf("post-seal store has %d lines, want %d", len(spilled), total)
	}
	all, err = bufAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("post-seal read %d lines, want %d", len(all), total)
	}
}

// TestCacheHitServesWithoutRerun pins the content-addressed cache: an
// identical seeded resubmission is answered by the job that ran — its
// ID in the view and Location, its summary, flat simulation counters —
// with an Idempotency-Key header that round-trips (mismatches
// rejected), and a hit that asks for NDJSON gets that job's stored
// stream.
func TestCacheHitServesWithoutRerun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	spec := Spec{
		Kind: KindBatch, Protocol: "asym", P: 4, N: 4,
		Seed: 7, Trials: 3, Workers: 1, Budget: 200_000,
	}
	status, v1, _, hdr1 := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	key := hdr1.Get("Idempotency-Key")
	if !strings.HasPrefix(key, "sha256:") {
		t.Fatalf("Idempotency-Key header %q, want sha256:<hex>", key)
	}
	waitState(t, ts, v1.ID, StateDone, 30*time.Second)
	stored := resultsBody(t, ts, v1.ID)
	steps0 := s.met.trialSteps.Value()

	status, v2, _, hdr2 := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	if v2.ID != v1.ID || v2.State != StateDone {
		t.Fatalf("resubmission answered by %s in state %q, want the source %s, done", v2.ID, v2.State, v1.ID)
	}
	if v2.Summary == nil || !v2.Summary.OK {
		t.Fatalf("hit summary %+v", v2.Summary)
	}
	if got := hdr2.Get("Location"); got != "/v1/jobs/"+v1.ID {
		t.Fatalf("hit Location %q, want the source's", got)
	}
	if got := hdr2.Get("Idempotency-Key"); got != key {
		t.Fatalf("hit Idempotency-Key %q, want %q", got, key)
	}
	if got := s.met.trialSteps.Value(); got != steps0 {
		t.Fatalf("cache hit re-simulated: trial steps %d -> %d", steps0, got)
	}
	if got := s.met.cacheHits.Value(); got != 1 {
		t.Fatalf("cache_hits = %d, want 1", got)
	}

	// A client key that does not match the canonical hash is a 400; the
	// matching key is accepted and hits again.
	status, _, jerr, _ := postJobKey(t, ts, spec, "sha256:wrong")
	if status != http.StatusBadRequest || jerr == nil || jerr.Kind != "idempotency-mismatch" {
		t.Fatalf("mismatched key: status %d body %+v", status, jerr)
	}
	status, v3, _, _ := postJobKey(t, ts, spec, key)
	if status != http.StatusAccepted || v3.ID != v1.ID {
		t.Fatalf("matching key: status %d, answered by %s", status, v3.ID)
	}

	// A hit that asks for NDJSON is answered with the source's stream:
	// 200, the same headers, and the bytes GET /results serves for it.
	resp, body, err := postNDJSON(ts, spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("NDJSON hit: status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if got := resp.Header.Get("Idempotency-Key"); got != key {
		t.Fatalf("NDJSON hit Idempotency-Key %q, want %q", got, key)
	}
	if got := resp.Header.Get("Location"); got != "/v1/jobs/"+v1.ID {
		t.Fatalf("NDJSON hit Location %q, want the source's", got)
	}
	if !bytes.Equal(body, stored) {
		t.Fatalf("NDJSON hit body differs from the source's /results stream:\npost: %s\nget:  %s", body, stored)
	}

	// The header changes nothing else: a mismatched key is still the
	// JSON 400, and a miss still answers 202 with a new job's view.
	resp, body, err = postNDJSON(ts, spec, "sha256:wrong")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" ||
		!bytes.Contains(body, []byte(`"idempotency-mismatch"`)) {
		t.Fatalf("NDJSON mismatched key: status %d, %s", resp.StatusCode, body)
	}
	miss := spec
	miss.Seed++
	resp, body, err = postNDJSON(ts, miss, "")
	if err != nil {
		t.Fatal(err)
	}
	var vm JobView
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &vm) != nil || vm.ID == "" || vm.ID == v1.ID {
		t.Fatalf("NDJSON miss: status %d, %s", resp.StatusCode, body)
	}
}

// TestCacheHitIsALookup pins what a hit costs: k NDJSON hits on one
// key, sent in concurrent rounds, write nothing to the store (no
// Admit, AppendResults or Finalize), read the source's log once each
// and no other, list no new job, and journal one cached record each,
// naming the source; every body is the source's GET /results stream
// byte for byte.
func TestCacheHitIsALookup(t *testing.T) {
	ps := newProbeStore()
	sink := &jobRecSink{}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Store: ps, Sink: sink})
	status, v, _, _ := postJob(t, ts, quickSpec(6))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	src := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	stored := resultsBody(t, ts, src.ID)
	jobs0 := len(listJobs(t, ts))
	calls0, reads0, recs0 := ps.callCounts(), ps.readCounts(), len(sink.all())

	const rounds, perRound = 25, 8
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < perRound; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body, err := postNDJSON(ts, quickSpec(6), "")
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != "/v1/jobs/"+src.ID {
					t.Errorf("hit: status %d, Location %q; want 200 and the source %s", resp.StatusCode, resp.Header.Get("Location"), src.ID)
					return
				}
				if !bytes.Equal(body, stored) {
					t.Errorf("hit body differs from the source's /results stream:\nhit:    %s\nsource: %s", body, stored)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	const k = rounds * perRound
	calls := ps.callCounts()
	for _, op := range []string{"Admit", "AppendResults", "Finalize"} {
		if n := calls[op] - calls0[op]; n != 0 {
			t.Errorf("%d hits made %d %s calls, want 0", k, n, op)
		}
	}
	for id, n := range ps.readCounts() {
		want := reads0[id]
		if id == src.ID {
			want += k
		}
		if n != want {
			t.Errorf("%s: %d result-log reads after %d hits, want %d", id, n, k, want)
		}
	}
	if n := len(listJobs(t, ts)); n != jobs0 {
		t.Errorf("GET /v1/jobs lists %d jobs after the hits, want %d", n, jobs0)
	}
	recs := sink.all()[recs0:]
	if len(recs) != k {
		t.Fatalf("%d hits journaled %d records, want one each", k, len(recs))
	}
	for _, rec := range recs {
		if !rec.Cached || rec.ID != src.ID || rec.State != string(StateDone) || rec.WallNS != 0 || rec.QueueWaitNS != 0 {
			t.Fatalf("hit journaled %+v; want the source's done record, cached, without wall-clock fields", rec)
		}
	}
}

// postNDJSON submits spec asking for an NDJSON answer, with an
// Idempotency-Key when key is set, and returns the response and its
// whole body. It reports failures as errors, so goroutines may call it.
func postNDJSON(ts *httptest.Server, spec Spec, key string) (*http.Response, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// resultsBody reads GET /v1/jobs/{id}/results whole.
func resultsBody(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results of %s: status %d, err %v", id, resp.StatusCode, err)
	}
	return body
}

// listJobs reads GET /v1/jobs.
func listJobs(t *testing.T, ts *httptest.Server) []JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}

// jobRecSink is a service-journal sink that keeps every JobRec.
type jobRecSink struct {
	mu   sync.Mutex
	recs []JobRec
}

func (k *jobRecSink) Emit(v any) error {
	if rec, ok := v.(JobRec); ok {
		k.mu.Lock()
		k.recs = append(k.recs, rec)
		k.mu.Unlock()
	}
	return nil
}

func (k *jobRecSink) all() []JobRec {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.recs)
}

// TestRestartRestoresCompletedJobs pins terminal-job recovery: a second
// server over the same store serves the finished job's view, summary
// and byte-identical stream, re-seeds the result cache from it (a
// resubmission is answered by the restored job), and continues the ID
// sequence past it.
func TestRestartRestoresCompletedJobs(t *testing.T) {
	m := store.NewMemory()
	s1, err := New(Config{Workers: 1, QueueCap: 4, Store: m})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	status, v1, _, _ := postJob(t, ts1, quickSpec(2))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	done := waitState(t, ts1, v1.ID, StateDone, 30*time.Second)
	lines1 := streamLines(t, ts1, v1.ID)
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Workers: 1, QueueCap: 4, Store: m})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	if got := s2.met.restored.Value(); got != 1 {
		t.Fatalf("jobs_restored = %d, want 1", got)
	}
	v := getView(t, ts2, v1.ID)
	if v.State != StateDone || v.Records != len(lines1) {
		t.Fatalf("restored view state=%q records=%d, want done/%d", v.State, v.Records, len(lines1))
	}
	if v.Summary == nil || !v.Summary.OK || v.Summary.Steps != done.Summary.Steps {
		t.Fatalf("restored summary %+v, want %+v", v.Summary, done.Summary)
	}
	if v.IdempotencyKey == "" || v.Seed != 2 {
		t.Fatalf("restored identity: key=%q seed=%d", v.IdempotencyKey, v.Seed)
	}
	lines2 := streamLines(t, ts2, v1.ID)
	if len(lines2) != len(lines1) {
		t.Fatalf("restored stream %d records, want %d", len(lines2), len(lines1))
	}
	for i := range lines1 {
		if !bytes.Equal(lines1[i], lines2[i]) {
			t.Fatalf("restored record %d differs:\nbefore: %s\nafter:  %s", i, lines1[i], lines2[i])
		}
	}
	// The cache was re-seeded from the store: an identical resubmission
	// is answered by the restored job.
	status, v2, _, _ := postJob(t, ts2, quickSpec(2))
	if status != http.StatusAccepted || v2.ID != v1.ID || v2.State != StateDone {
		t.Fatalf("post-restart resubmission: status %d, answered by %s in state %q; want the restored %s, done",
			status, v2.ID, v2.State, v1.ID)
	}
	// A miss is a new job, its ID past the restored one.
	status, v3, _, _ := postJob(t, ts2, quickSpec(3))
	if status != http.StatusAccepted {
		t.Fatalf("miss status %d", status)
	}
	if v3.ID <= v1.ID {
		t.Fatalf("ID sequence did not continue: %s after %s", v3.ID, v1.ID)
	}
}

// TestRestoreEarlierSourceAnswers boots a WAL holding two done jobs
// with one key, as a log written while cache hits were jobs of their
// own holds a source and a hit: the later job's log is a copy of the
// source's and its terminal record carries "cached": true. Both restore
// as done jobs, and a resubmission is answered by the earlier one.
func TestRestoreEarlierSourceAnswers(t *testing.T) {
	dir := t.TempDir()
	w, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, QueueCap: 4, Store: w})
	if err != nil {
		t.Fatal(err)
	}
	v, jerr := s1.Submit(quickSpec(2))
	if jerr != nil {
		t.Fatal(jerr)
	}
	src := waitJob(t, s1, v.ID, 30*time.Second)
	s1.Close()
	lines, err := w.ReadResults(src.ID, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := canonicalSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := json.Marshal(src.Summary)
	if err != nil {
		t.Fatal(err)
	}
	const hitID = "j000002"
	if err := w.Admit(hitID, canonical, false); err != nil {
		t.Fatal(err)
	}
	hitLog := append(slices.Clone(lines[:len(lines)-1]),
		[]byte(`{"v":1,"type":"job","id":"`+hitID+`","kind":"sim","state":"done","protocol":"asym","seed":2,"cached":true}`+"\n"))
	if err := w.AppendResults(hitID, hitLog); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The hit's terminal WAL record, framed by hand: Rec has no cached
	// field any more.
	body := fmt.Sprintf(`{"v":1,"seq":4,"t":"state","id":"%s","state":"done","summary":%s,"cached":true,"resultLines":%d}`,
		hitID, summary, len(hitLog))
	f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	s2, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Store: w2})
	if got := s2.met.restored.Value(); got != 2 {
		t.Fatalf("jobs_restored = %d, want 2", got)
	}
	if v := getView(t, ts, hitID); v.State != StateDone || v.Records != len(hitLog) {
		t.Fatalf("restored hit job: state %q, %d records; want done, %d", v.State, v.Records, len(hitLog))
	}
	resp, got, err := postNDJSON(ts, quickSpec(2), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != "/v1/jobs/"+src.ID {
		t.Fatalf("resubmission: status %d, Location %q; want 200 and the earlier job %s",
			resp.StatusCode, resp.Header.Get("Location"), src.ID)
	}
	if want := resultsBody(t, ts, src.ID); !bytes.Equal(got, want) {
		t.Fatalf("resubmission body differs from %s's stream:\ngot:  %s\nwant: %s", src.ID, got, want)
	}
}

// probeStore wraps store.Memory for the result-cache tests: it counts
// calls per operation and ReadResults calls per job, and fails the
// result-log reads of the job a test names.
type probeStore struct {
	*store.Memory
	mu       sync.Mutex
	calls    map[string]int
	reads    map[string]int
	failRead string // ReadResults of this job ID fails
}

func newProbeStore() *probeStore {
	return &probeStore{Memory: store.NewMemory(), calls: map[string]int{}, reads: map[string]int{}}
}

func (p *probeStore) count(op string) {
	p.mu.Lock()
	p.calls[op]++
	p.mu.Unlock()
}

func (p *probeStore) ReadResults(id string, from, to int) ([][]byte, error) {
	p.mu.Lock()
	p.calls["ReadResults"]++
	p.reads[id]++
	fail := id == p.failRead
	p.mu.Unlock()
	if fail {
		return nil, errors.New("result log unreadable")
	}
	return p.Memory.ReadResults(id, from, to)
}

func (p *probeStore) Admit(id string, spec json.RawMessage, seedDerived bool) error {
	p.count("Admit")
	return p.Memory.Admit(id, spec, seedDerived)
}

func (p *probeStore) SetState(id, state string) error {
	p.count("SetState")
	return p.Memory.SetState(id, state)
}

func (p *probeStore) AppendResults(id string, lines [][]byte) error {
	p.count("AppendResults")
	return p.Memory.AppendResults(id, lines)
}

func (p *probeStore) Finalize(id string, fin store.Final) error {
	p.count("Finalize")
	return p.Memory.Finalize(id, fin)
}

// callCounts returns a copy of the per-operation call counts.
func (p *probeStore) callCounts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.calls)
}

// readCounts returns a copy of the per-job ReadResults counts.
func (p *probeStore) readCounts() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.reads)
}

// TestRestartReadsNoResultLog pins that the result cache is an index
// over the store, not a copy of it: booting over k done jobs reads no
// result log yet indexes all k, and the first identical resubmission
// is answered by its source, whose log it reads exactly once. A
// finished miss writes no SetState record: the store holds its
// admission and terminal records only.
func TestRestartReadsNoResultLog(t *testing.T) {
	ps := newProbeStore()
	s1, err := New(Config{Workers: 1, QueueCap: 8, Store: ps})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	for seed := int64(1); seed <= k; seed++ {
		v, jerr := s1.Submit(quickSpec(seed))
		if jerr != nil {
			t.Fatal(jerr)
		}
		waitJob(t, s1, v.ID, 30*time.Second)
	}
	s1.Close()
	if n := ps.callCounts()["SetState"]; n != 0 {
		t.Fatalf("%d finished misses made %d SetState calls, want 0", k, n)
	}
	before := ps.readCounts()

	s2, err := New(Config{Workers: 1, QueueCap: 8, Store: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after := ps.readCounts(); !maps.Equal(after, before) {
		t.Fatalf("boot read result logs: counts %v -> %v", before, after)
	}
	s2.mu.Lock()
	entries := len(s2.sources)
	s2.mu.Unlock()
	if entries != k {
		t.Fatalf("%d result-cache entries after boot, want %d", entries, k)
	}

	v, jerr := s2.Submit(quickSpec(2))
	if jerr != nil {
		t.Fatal(jerr)
	}
	if v.ID != "j000002" || v.State != StateDone {
		t.Fatalf("resubmission after boot answered by %s in state %q, want j000002, done", v.ID, v.State)
	}
	after := ps.readCounts()
	for id, n := range after {
		want := before[id]
		if id == "j000002" {
			want++
		}
		if n != want {
			t.Errorf("%s: %d result-log reads, want %d", id, n, want)
		}
	}
}

// TestCacheHitUnreadableSourceRuns pins the fallback when the source's
// stored stream cannot be read: the resubmission counts as a miss and
// runs as a new job, reproducing the source's stream apart from
// wall-clock fields and job records, and the re-run replaces the
// source.
func TestCacheHitUnreadableSourceRuns(t *testing.T) {
	ps := newProbeStore()
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Store: ps})
	status, v1, _, _ := postJob(t, ts, quickSpec(3))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	waitState(t, ts, v1.ID, StateDone, 30*time.Second)
	want := canonRecords(t, streamLines(t, ts, v1.ID), "job")

	ps.mu.Lock()
	ps.failRead = v1.ID
	ps.mu.Unlock()
	misses0, hits0 := s.met.cacheMisses.Value(), s.met.cacheHits.Value()
	status, v2, _, _ := postJob(t, ts, quickSpec(3))
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	if v2.ID == v1.ID {
		t.Fatal("resubmission answered by an unreadable source")
	}
	waitState(t, ts, v2.ID, StateDone, 30*time.Second)
	if got := s.met.cacheMisses.Value(); got != misses0+1 {
		t.Fatalf("cache_misses %d -> %d, want +1", misses0, got)
	}
	if got := s.met.cacheHits.Value(); got != hits0 {
		t.Fatalf("cache_hits %d -> %d, want unchanged", hits0, got)
	}
	got := canonRecords(t, streamLines(t, ts, v2.ID), "job")
	if len(got) != len(want) {
		t.Fatalf("re-run stream %d canonical records, source %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\nre-run: %s\nsource: %s", i, got[i], want[i])
		}
	}

	// The re-run is the key's source now: a third submission is a hit
	// answered by it.
	status, v3, _, _ := postJob(t, ts, quickSpec(3))
	if status != http.StatusAccepted || v3.ID != v2.ID {
		t.Fatalf("third submission: status %d, answered by %s; want 202 and the re-run %s", status, v3.ID, v2.ID)
	}
}

// TestRestartRequeuesInterruptedJobs pins mid-flight recovery: jobs the
// previous process left queued or running are re-queued at boot, their
// partial result logs reset, and the deterministic re-run matches a
// fresh reference run record-for-record.
func TestRestartRequeuesInterruptedJobs(t *testing.T) {
	// Craft the store a crashed server would leave behind: one job
	// caught running with a partial result log, one still queued.
	v, verr := prepare(quickSpec(2))
	if verr != nil {
		t.Fatal(verr)
	}
	canonical, err := canonicalSpec(v)
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewMemory()
	for _, id := range []string{"j000001", "j000002"} {
		if err := m.Admit(id, canonical, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetState("j000001", store.StateRunning); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendResults("j000001", [][]byte{[]byte("{\"partial\":true}\n")}); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 2, QueueCap: 4, Store: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if got := s.met.requeued.Value(); got != 2 {
		t.Fatalf("jobs_requeued = %d, want 2", got)
	}
	waitState(t, ts, "j000001", StateDone, 30*time.Second)
	waitState(t, ts, "j000002", StateDone, 30*time.Second)

	// The reference: the same spec on a fresh server.
	_, tsRef := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, ref, _, _ := postJob(t, tsRef, quickSpec(2))
	if status != http.StatusAccepted {
		t.Fatalf("reference submit status %d", status)
	}
	waitState(t, tsRef, ref.ID, StateDone, 30*time.Second)
	want := canonRecords(t, streamLines(t, tsRef, ref.ID), "job")

	for _, id := range []string{"j000001", "j000002"} {
		lines := streamLines(t, ts, id)
		for _, line := range lines {
			if bytes.Contains(line, []byte("partial")) {
				t.Fatalf("%s: stale pre-crash line survived the reset: %s", id, line)
			}
		}
		got := canonRecords(t, lines, "job")
		if len(got) != len(want) {
			t.Fatalf("%s: %d canonical records, reference %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s record %d differs:\nrerun:     %s\nreference: %s", id, i, got[i], want[i])
			}
		}
	}
	// The store journaled the full second lifecycle.
	snaps, err := m.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("store holds %d jobs, want 2", len(snaps))
	}
	for _, snap := range snaps {
		if snap.State != store.StateDone || snap.ResultLines == 0 {
			t.Fatalf("snapshot %s: state=%q lines=%d", snap.ID, snap.State, snap.ResultLines)
		}
	}
}

// TestCancelRacePickup drives the cancel-while-queued vs worker-pickup
// race under load (run with -race via make race): every job must
// land terminal canceled in both the server's view and the store's
// record sequence, never journaled running after canceled.
func TestCancelRacePickup(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const rounds = 40
	ids := make([]string, 0, rounds)
	for i := 0; i < rounds; i++ {
		v, jerr := s.Submit(longRunningSpec())
		if jerr != nil {
			t.Fatalf("submit %d: %v", i, jerr)
		}
		if _, jerr := s.Cancel(v.ID); jerr != nil {
			t.Fatal(jerr)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		v := waitJob(t, s, id, 60*time.Second)
		if v.State != StateCanceled {
			t.Fatalf("%s: terminal state %q, want canceled", id, v.State)
		}
		if v.Error == "canceled while queued" && v.Records != 1 {
			t.Fatalf("%s: queued-cancel stream has %d records, want 1", id, v.Records)
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

// TestKillRestartRecovery is the crash acceptance test: the real binary
// is SIGKILLed mid-batch and restarted against the same -store-dir. The
// finished job must come back byte-identical, the interrupted jobs must
// re-queue and re-run deterministically, and a resubmission of the
// finished spec must be answered by the restored job from the re-seeded
// cache with the simulation counters flat.
func TestKillRestartRecovery(t *testing.T) {
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
	storeDir := filepath.Join(dir, "store")

	start := func(workers string) (*exec.Cmd, string) {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", workers,
			"-store", "wal", "-store-dir", storeDir, "-grace", "5s")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr = strings.Fields(rest)[0]
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatalf("no listening line (scan err %v)", sc.Err())
		}
		go func() {
			for sc.Scan() {
			}
		}()
		return cmd, "http://" + addr
	}
	post := func(base, body string) JobView {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := json.Marshal(resp.Header)
			t.Fatalf("submit status %d (%s)", resp.StatusCode, b)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	view := func(base, id string) JobView {
		resp, err := http.Get(base + "/v1/jobs/" + id)
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
	await := func(base, id string, want JobState, d time.Duration) {
		stop := time.Now().Add(d)
		for {
			v := view(base, id)
			if v.State == want {
				return
			}
			if time.Now().After(stop) {
				t.Fatalf("job %s stuck in %q (want %q)", id, v.State, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	results := func(base, id string) []byte {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/results?follow=false")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	promValue := func(base, name string) string {
		resp, err := http.Get(base + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if val, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
				return val
			}
		}
		t.Fatalf("metric %s not exposed", name)
		return ""
	}

	quick1 := `{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":2,"budget":100000}`
	blocker := `{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":3,"budget":274877906944,"faults":"@999999999999:corrupt=1"}`
	quick2 := `{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":5,"budget":100000}`

	cmd, base := start("1")
	defer cmd.Process.Kill()
	j1 := post(base, quick1)
	await(base, j1.ID, StateDone, 30*time.Second)
	body1 := results(base, j1.ID)
	if len(body1) == 0 {
		t.Fatal("finished job streamed no bytes")
	}
	jb := post(base, blocker)
	await(base, jb.ID, StateRunning, 10*time.Second)
	j2 := post(base, quick2)
	if v := view(base, j2.ID); v.State != StateQueued {
		t.Fatalf("third job state %q, want queued at kill time", v.State)
	}
	// SIGKILL: no drain, no flush beyond what the WAL already holds.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Restart with 2 workers: the never-converging blocker is requeued
	// ahead of the quick job, and both must get a worker.
	cmd2, base2 := start("2")
	defer cmd2.Process.Kill()

	// The finished job survived byte-for-byte.
	if v := view(base2, j1.ID); v.State != StateDone || v.Summary == nil || !v.Summary.OK {
		t.Fatalf("restored job view %+v", v)
	}
	if body := results(base2, j1.ID); !bytes.Equal(body, body1) {
		t.Fatalf("restored results differ:\nbefore: %d bytes\nafter:  %d bytes\n%s\nvs\n%s",
			len(body1), len(body), body1, body)
	}
	if got := promValue(base2, "ppserved_jobs_requeued_total"); got != "2" {
		t.Fatalf("ppserved_jobs_requeued_total = %s, want 2", got)
	}

	// The interrupted quick job re-ran deterministically: its stream
	// matches a fresh in-process reference run of the same spec.
	await(base2, j2.ID, StateDone, 30*time.Second)
	_, tsRef := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	status, ref, _, _ := postJob(t, tsRef, quickSpec(5))
	if status != http.StatusAccepted {
		t.Fatalf("reference submit status %d", status)
	}
	waitState(t, tsRef, ref.ID, StateDone, 30*time.Second)
	want := canonRecords(t, streamLines(t, tsRef, ref.ID), "job")
	var rerunLines [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(results(base2, j2.ID), []byte("\n")), []byte("\n")) {
		rerunLines = append(rerunLines, line)
	}
	got := canonRecords(t, rerunLines, "job")
	if len(got) != len(want) {
		t.Fatalf("rerun stream %d canonical records, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rerun record %d differs:\nrerun:     %s\nreference: %s", i, got[i], want[i])
		}
	}

	// The blocker re-queued too; cancel it so the server can drain.
	await(base2, jb.ID, StateRunning, 20*time.Second)
	resp, err := http.Post(base2+"/v1/jobs/"+jb.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	await(base2, jb.ID, StateCanceled, 30*time.Second)

	// The cache was repopulated from the WAL: resubmitting the finished
	// spec is a hit, answered by the restored job without a single new
	// interaction.
	steps0 := promValue(base2, "ppserved_interactions_total")
	hit := post(base2, quick1)
	if hit.ID != j1.ID || hit.State != StateDone {
		t.Fatalf("post-restart resubmission answered by %s in state %q, want the restored %s, done", hit.ID, hit.State, j1.ID)
	}
	if steps := promValue(base2, "ppserved_interactions_total"); steps != steps0 {
		t.Fatalf("cache hit re-simulated after restart: interactions %s -> %s", steps0, steps)
	}

	if err := cmd2.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd2.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("ppserved exited non-zero after recovery: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ppserved did not exit")
	}
}

// benchAdmitCold measures the end-to-end cold path — admission, queue,
// simulation, finalization — per job, with a fresh seed each iteration
// so the cache never short-circuits it.
func benchAdmitCold(b *testing.B, cfg Config) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, jerr := s.submit(quickSpec(int64(i+1)), "")
		if jerr != nil {
			b.Fatal(jerr)
		}
		<-a.job.ctx.Done() // finalize releases the job context
	}
}

func BenchmarkAdmitColdMemory(b *testing.B) {
	benchAdmitCold(b, Config{Workers: 2, QueueCap: 8})
}

func BenchmarkAdmitColdWAL(b *testing.B) {
	w, err := store.OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	benchAdmitCold(b, Config{Workers: 2, QueueCap: 8, Store: w})
}

// BenchmarkAdmitCacheHit measures the memoized path: the same seeded
// spec, primed once, then answered by that job from the result cache:
// one read of its stored stream, no store write.
func BenchmarkAdmitCacheHit(b *testing.B) {
	s, err := New(Config{Workers: 2, QueueCap: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src, jerr := s.submit(quickSpec(7), "")
	if jerr != nil {
		b.Fatal(jerr)
	}
	<-src.job.ctx.Done() // finalize releases the job context
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, jerr := s.submit(quickSpec(7), "")
		if jerr != nil {
			b.Fatal(jerr)
		}
		if hit.job != nil || hit.id != src.id {
			b.Fatalf("iteration %d answered by %s, not the source %s", i, hit.id, src.id)
		}
	}
}
