package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popnaming/internal/serve/store"
)

// distSpec is the canonical batch spec for sharding tests: Workers 1
// so the reference stream's trial ordering is itself deterministic and
// the merged stream can match it byte for byte, and a population large
// enough (~1ms/trial) that leases spread across executors instead of
// draining locally before the peer loops wake.
func distSpec() Spec {
	return Spec{
		Kind: KindBatch, Protocol: "asym", P: 32, N: 32,
		Seed: 7, Trials: 10, Workers: 1, Budget: 5_000_000,
	}
}

// runCanonical submits a spec, waits for completion, and returns the
// canonical workload stream.
func runCanonical(t *testing.T, ts *httptest.Server, spec Spec) []string {
	t.Helper()
	code, v, e, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	waitState(t, ts, v.ID, StateDone, 60*time.Second)
	return canonRecords(t, streamLines(t, ts, v.ID), "header", "job")
}

func assertSameStream(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream has %d workload lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d diverges:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// chaosMode scripts one request's fate at the flaky-peer proxy.
type chaosMode int

const (
	chaosPass     chaosMode = iota
	chaosFail               // 500 without reaching the peer
	chaosDrop               // connection closed without a response
	chaosDelay              // 50ms added latency, then pass
	chaosTruncate           // forwarded, response body cut in half
)

// newChaosProxy fronts a real peer with scripted per-request failures:
// the n-th request (0-based, across all paths) gets script(n)'s fate.
// Responses are buffered so chaosTruncate can cut NDJSON streams
// mid-line, modeling a peer dying mid-response.
func newChaosProxy(t *testing.T, backend string, script func(n int) chaosMode) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode := script(int(n.Add(1) - 1))
		switch mode {
		case chaosFail:
			http.Error(w, "chaos: injected 500", http.StatusInternalServerError)
			return
		case chaosDrop:
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("chaos proxy: response writer is not a hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		case chaosDelay:
			time.Sleep(50 * time.Millisecond)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if mode == chaosTruncate {
			body = body[:len(body)/2]
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDistChaosDeterminism is the chaos determinism pin: whatever
// failures the peer path injects — 500s, dropped connections, added
// latency, half-written NDJSON responses — and whatever the lease
// size, the merged result stream is byte-identical (modulo wall-clock
// fields) to the same job on a standalone node.
func TestDistChaosDeterminism(t *testing.T) {
	spec := distSpec()
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	want := runCanonical(t, refTS, spec)

	// Real peers shared across schedules; their result caches make
	// re-issued shards idempotent, exactly as in production.
	_, peer1 := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	_, peer2 := newTestServer(t, Config{Workers: 2, QueueCap: 32})

	schedules := []struct {
		name   string
		script func(n int) chaosMode
	}{
		{"every-3rd-500", func(n int) chaosMode {
			if n%3 == 2 {
				return chaosFail
			}
			return chaosPass
		}},
		{"drop-and-delay", func(n int) chaosMode {
			switch {
			case n == 1:
				return chaosDrop
			case n%5 == 3:
				return chaosDelay
			}
			return chaosPass
		}},
		{"truncate-every-4th", func(n int) chaosMode {
			if n%4 == 1 {
				return chaosTruncate
			}
			return chaosPass
		}},
	}
	for _, leaseTrials := range []int{3, 6} {
		for _, sched := range schedules {
			t.Run(fmt.Sprintf("lease%d/%s", leaseTrials, sched.name), func(t *testing.T) {
				p1 := newChaosProxy(t, peer1.URL, sched.script)
				p2 := newChaosProxy(t, peer2.URL, sched.script)
				mem := store.NewMemory()
				s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: mem,
					Peers: []string{p1.URL, p2.URL}, LeaseTrials: leaseTrials,
					DistRetries: 2, LeaseTimeout: 30 * time.Second})
				got := runCanonical(t, ts, spec)
				assertSameStream(t, got, want)
				completed := s.met.leasesCompleted.Value()
				if completed == 0 {
					t.Fatal("no leases completed through the coordinator")
				}
				// The store keeps one shard job per completed lease,
				// however many attempts the schedule failed and re-issued.
				if kept := keptShards(t, mem); uint64(len(kept)) != completed {
					t.Errorf("%d shard jobs kept, want one per completed lease (%d)", len(kept), completed)
				}
			})
		}
	}
}

// keptShards returns the done shard jobs a store holds: on a
// coordinator, its completed leases.
func keptShards(t *testing.T, js JobStore) []store.Snapshot {
	t.Helper()
	snaps, err := js.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var kept []store.Snapshot
	for _, snap := range snaps {
		var sp Spec
		if err := json.Unmarshal(snap.Spec, &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Shard != nil && snap.State == store.StateDone {
			kept = append(kept, snap)
		}
	}
	return kept
}

// TestDistKillPeerMidJob kills one of two peers mid-campaign: the job
// must still complete, with the dead peer's leases re-issued, and the
// assembled stream must stay canonical — no lost and no duplicated
// trials.
func TestDistKillPeerMidJob(t *testing.T) {
	spec := distSpec()
	spec.Trials = 24
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	want := runCanonical(t, refTS, spec)

	_, peer1 := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	_, peer2 := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8,
		Peers: []string{peer1.URL, peer2.URL}, LeaseTrials: 2, DistRetries: 3})

	code, v, e, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	// Pull the plug on a peer as soon as the coordinator has merged at
	// least one shard (or immediately if the job already finished).
	for {
		if s.met.leasesCompleted.Value() >= 1 || getView(t, ts, v.ID).State.terminal() {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	peer2.Close()

	waitState(t, ts, v.ID, StateDone, 60*time.Second)
	got := canonRecords(t, streamLines(t, ts, v.ID), "header", "job")
	assertSameStream(t, got, want)
}

// TestDistZeroLivePeers pins the degradation floor: with every
// configured peer unreachable, the local executor drains the whole
// plan and the job completes with the canonical stream.
func TestDistZeroLivePeers(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8,
		Peers: []string{deadURL}, LeaseTrials: 2, DistRetries: 1})

	// On a single-CPU host the serial local loop can drain every lease
	// before the dead-peer goroutine is ever scheduled, so one job is
	// not guaranteed to touch the peer. Every job must complete with
	// the canonical stream regardless; run fresh jobs until the dead
	// peer has actually been attempted (failures observed).
	for round := 0; ; round++ {
		spec := distSpec()
		spec.Trials = 20
		spec.Seed = int64(7 + round)
		want := runCanonical(t, refTS, spec)
		done0 := s.met.leasesCompleted.Value()
		got := runCanonical(t, ts, spec)
		assertSameStream(t, got, want)
		if done := s.met.leasesCompleted.Value() - done0; done != 10 {
			t.Fatalf("round %d: %d leases completed, want 10", round, done)
		}
		if s.met.leaseFailures.Value() > 0 {
			break
		}
		if round == 9 {
			t.Fatal("dead peer produced no lease failures in 10 jobs")
		}
	}
}

// TestDistRestoreSkipsCompletedLeases pins crash-restart recovery: a
// lease whose shard a previous incarnation kept as a done shard job is
// restored from the result cache, not re-executed, and the job still
// assembles the canonical stream.
func TestDistRestoreSkipsCompletedLeases(t *testing.T) {
	spec := distSpec()
	spec.Trials = 9 // three leases of three trials
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	want := runCanonical(t, refTS, spec)

	// Produce lease 0's shard job the way a peer would: run it on a
	// standalone server and keep its whole stream.
	shardSpec := spec
	shardSpec.Shard = &ShardRange{Lo: 0, Hi: 3}
	_, shardTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	code, sv, e, _ := postJob(t, shardTS, shardSpec)
	if code != http.StatusAccepted {
		t.Fatalf("shard submit: status %d, error %+v", code, e)
	}
	waitState(t, shardTS, sv.ID, StateDone, 30*time.Second)
	var stream [][]byte
	for _, line := range streamLines(t, shardTS, sv.ID) {
		stream = append(stream, append(line, '\n'))
	}

	// Build the store state a crashed coordinator leaves behind: the
	// job admitted but not terminal, lease 0 kept as a done shard job
	// under its canonical spec.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(shardSpec)
	if err != nil {
		t.Fatal(err)
	}
	shardJSON, err := canonicalSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	const id, shardID = "j000001", "j000002"
	for _, err := range []error{
		mem.Admit(id, specJSON, false),
		mem.Admit(shardID, shardJSON, false),
		mem.AppendResults(shardID, stream),
		mem.Finalize(shardID, store.Final{State: store.StateDone, ResultLines: len(stream)}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	_, peerTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8,
		Store: mem, Peers: []string{peerTS.URL}, LeaseTrials: 3})
	waitState(t, ts, id, StateDone, 60*time.Second)
	got := canonRecords(t, streamLines(t, ts, id), "header", "job")
	assertSameStream(t, got, want)
	if restored := s.met.leasesRestored.Value(); restored != 1 {
		t.Fatalf("%d leases restored, want 1", restored)
	}
}

// TestDistWALRestartRestoresKeptShards stops a coordinator on a WAL
// store once a lease has completed and reopens the same directory with
// the same peers behind request-counting proxies. The resubmitted
// batch gets every kept shard back from the result cache: the restored
// count equals the shard jobs kept before the stop, no peer is asked
// for a restored lease's range, and the stream is still canonical.
// The store's results directory holds job result logs only.
func TestDistWALRestartRestoresKeptShards(t *testing.T) {
	spec := distSpec()
	spec.Trials = 48
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	want := runCanonical(t, refTS, spec)

	_, peer1 := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	_, peer2 := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	cfg := func(js JobStore, peers ...string) Config {
		return Config{Workers: 2, QueueCap: 8, Store: js, Peers: peers, LeaseTrials: 2, DistRetries: 3}
	}
	dir := t.TempDir()
	w1, err := store.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(cfg(w1, peer1.URL, peer2.URL))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, v, e, _ := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	for s1.met.leasesCompleted.Value() == 0 {
		time.Sleep(200 * time.Microsecond)
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
	kept := make(map[ShardRange]bool)
	for _, snap := range keptShards(t, w2) {
		var sp Spec
		if err := json.Unmarshal(snap.Spec, &sp); err != nil {
			t.Fatal(err)
		}
		kept[*sp.Shard] = true
	}
	if len(kept) == 0 {
		t.Fatal("no shard job kept before the stop")
	}
	if len(kept) == spec.Trials/2 {
		t.Fatalf("batch %s finished before the stop; nothing is left to restore", v.ID)
	}
	t.Logf("%d of %d leases kept before the stop", len(kept), spec.Trials/2)
	var mu sync.Mutex
	var asked []ShardRange
	record := func(body []byte) {
		var sp Spec
		if err := json.Unmarshal(body, &sp); err != nil || sp.Shard == nil {
			t.Errorf("peer POST %q is not a shard spec (%v)", body, err)
			return
		}
		mu.Lock()
		asked = append(asked, *sp.Shard)
		mu.Unlock()
	}
	s2, ts2 := newTestServer(t, cfg(w2, newPostRecorder(t, peer1.URL, record).URL, newPostRecorder(t, peer2.URL, record).URL))
	assertSameStream(t, runCanonical(t, ts2, spec), want)
	if restored := s2.met.leasesRestored.Value(); restored != uint64(len(kept)) {
		t.Errorf("%d leases restored, want the %d shard jobs kept before the stop", restored, len(kept))
	}
	mu.Lock()
	for _, r := range asked {
		if kept[r] {
			t.Errorf("a peer was asked for restored lease %+v", r)
		}
	}
	mu.Unlock()

	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !regexp.MustCompile(`^j[0-9]{6}\.ndjson$`).MatchString(e.Name()) {
			t.Errorf("results directory holds %s, not a job result log", e.Name())
		}
	}
}

// newPostRecorder fronts a peer with a proxy that hands every POST
// /v1/jobs body to record before forwarding it.
func newPostRecorder(t *testing.T, backend string, record func(body []byte)) *httptest.Server {
	t.Helper()
	u, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			record(body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDistKeptShardIsCached pins what a completed lease leaves on the
// coordinator: a done shard job, listed by GET /v1/jobs, whose header
// and body lines equal under obs.Canonical those of the shard job a
// peer runs for the same spec, with the same key and summary, and
// which answers that spec's POST as a cache hit. Keeping it finalizes
// the job outside the server's lock.
func TestDistKeptShardIsCached(t *testing.T) {
	spec := distSpec()
	spec.Trials = 6
	_, peerTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	probe := &lockProbeStore{Memory: store.NewMemory()}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: probe,
		Peers: []string{peerTS.URL}, LeaseTrials: 3})
	probe.srv.Store(s)
	runCanonical(t, ts, spec)
	if n, held := probe.finalized.Load(), probe.held.Load(); n != 3 || held != 0 {
		t.Errorf("%d finalizations, %d with the server's lock held; want 3 (the batch and two kept shards), none held", n, held)
	}

	var kept []JobView
	for _, v := range listJobs(t, ts) {
		if v.Shard != nil {
			kept = append(kept, v)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("%d shard jobs kept, want one per lease (2)", len(kept))
	}
	for _, v := range kept {
		if v.State != StateDone {
			t.Fatalf("kept shard job %s is %s, want done", v.ID, v.State)
		}
		shardSpec := spec
		shardSpec.Shard = v.Shard
		code, pv, e, _ := postJob(t, peerTS, shardSpec)
		if code != http.StatusAccepted {
			t.Fatalf("peer submit: status %d, error %+v", code, e)
		}
		pv = waitState(t, peerTS, pv.ID, StateDone, 30*time.Second)
		if pv.IdempotencyKey != v.IdempotencyKey || !reflect.DeepEqual(pv.Summary, v.Summary) {
			t.Errorf("kept shard %s: key %s, summary %+v; the peer's job: key %s, summary %+v",
				v.ID, v.IdempotencyKey, v.Summary, pv.IdempotencyKey, pv.Summary)
		}
		assertSameStream(t, canonRecords(t, streamLines(t, ts, v.ID), "job"),
			canonRecords(t, streamLines(t, peerTS, pv.ID), "job"))

		resp, body, err := postNDJSON(ts, shardSpec, "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != "/v1/jobs/"+v.ID {
			t.Fatalf("shard spec POST: status %d, Location %q; want 200 from %s",
				resp.StatusCode, resp.Header.Get("Location"), v.ID)
		}
		if !bytes.Equal(body, resultsBody(t, ts, v.ID)) {
			t.Errorf("shard spec POST answered with a stream other than kept job %s's", v.ID)
		}
	}
	if hits := s.met.cacheHits.Value(); hits != 2 {
		t.Errorf("%d cache hits, want 2", hits)
	}
}

// TestDistMergedStreamSpills: a coordinator's merged batch stream obeys
// the buffer cap as a standalone node's does. At BufferBytes 1 every
// line spills, so the spill count rises at least once per delivered
// lease, and the finalized stream is still the standalone node's.
func TestDistMergedStreamSpills(t *testing.T) {
	spec := distSpec()
	spec.Trials, spec.ProgressEvery = 20, 2000
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8, BufferBytes: 1})
	want := runCanonical(t, refTS, spec)

	_, peerTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, BufferBytes: 1,
		Peers: []string{peerTS.URL}, LeaseTrials: 2})
	assertSameStream(t, runCanonical(t, ts, spec), want)
	leases, spills := s.met.leasesCompleted.Value(), s.met.bufSpills.Value()
	if leases != 10 || spills < leases {
		t.Fatalf("%d spills over %d delivered leases; want 10 leases and a spill or more each", spills, leases)
	}
}

// lockProbeStore counts Finalize calls and those that run while the
// server's lock is held: such a call cannot take srv.mu for 20ms.
type lockProbeStore struct {
	*store.Memory
	srv             atomic.Pointer[Server]
	finalized, held atomic.Int64
}

func (p *lockProbeStore) Finalize(id string, fin store.Final) error {
	if s := p.srv.Load(); s != nil {
		p.finalized.Add(1)
		for stop := time.Now().Add(20 * time.Millisecond); !s.mu.TryLock(); time.Sleep(10 * time.Microsecond) {
			if time.Now().After(stop) {
				p.held.Add(1)
				return p.Memory.Finalize(id, fin)
			}
		}
		s.mu.Unlock()
	}
	return p.Memory.Finalize(id, fin)
}

// TestDistShardJobsStayLocal pins the no-recursion rule: a job that
// already carries a shard range executes on the receiving node even
// when peers are configured, so shard fan-out cannot cascade.
func TestDistShardJobsStayLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	spec := distSpec()
	spec.Shard = &ShardRange{Lo: 2, Hi: 5}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8,
		Peers: []string{deadURL}, LeaseTrials: 2})
	code, v, e, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, error %+v", code, e)
	}
	waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if s.met.leasesIssued.Value() != 0 {
		t.Fatal("shard job went through the dist coordinator")
	}
	// The shard stream covers exactly its range's trials.
	sum := getView(t, ts, v.ID).Summary
	if sum == nil || sum.Trials != 3 {
		t.Fatalf("shard summary %+v, want 3 trials", sum)
	}
}
