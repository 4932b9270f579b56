package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
				ls := &leaseStore{Memory: store.NewMemory()}
				s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, Store: ls,
					Peers: []string{p1.URL, p2.URL}, LeaseTrials: leaseTrials,
					DistRetries: 2, LeaseTimeout: 30 * time.Second})
				got := runCanonical(t, ts, spec)
				assertSameStream(t, got, want)
				completed := s.met.leasesCompleted.Value()
				if completed == 0 {
					t.Fatal("no leases completed through the coordinator")
				}
				// Only completed leases reach the store, however many
				// attempts the schedule failed and re-issued.
				ls.mu.Lock()
				states := ls.states
				ls.mu.Unlock()
				if uint64(len(states)) != completed {
					t.Errorf("%d lease records stored, want one per completed lease (%d)", len(states), completed)
				}
				for _, st := range states {
					if st != store.LeaseCompleted {
						t.Errorf("stored lease state %q, want only %q: %v", st, store.LeaseCompleted, states)
						break
					}
				}
			})
		}
	}
}

// leaseStore wraps store.Memory and records the state of every lease
// the server persists.
type leaseStore struct {
	*store.Memory
	mu     sync.Mutex
	states []string
}

func (l *leaseStore) PutLease(id string, snap store.LeaseSnap) error {
	l.mu.Lock()
	l.states = append(l.states, snap.State)
	l.mu.Unlock()
	return l.Memory.PutLease(id, snap)
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
// lease whose shard a previous incarnation persisted is restored from
// the store, not re-executed, and the job still assembles the
// canonical stream.
func TestDistRestoreSkipsCompletedLeases(t *testing.T) {
	spec := distSpec()
	spec.Trials = 9 // three leases of three trials
	_, refTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	want := runCanonical(t, refTS, spec)

	// Produce lease 0's shard the way a peer would: run the shard job
	// on a standalone server and keep its stream minus the header and
	// terminal job record, as the peer client returns it.
	shardSpec := spec
	shardSpec.Shard = &ShardRange{Lo: 0, Hi: 3}
	_, shardTS := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	code, sv, e, _ := postJob(t, shardTS, shardSpec)
	if code != http.StatusAccepted {
		t.Fatalf("shard submit: status %d, error %+v", code, e)
	}
	waitState(t, shardTS, sv.ID, StateDone, 30*time.Second)
	var shard [][]byte
	lines := streamLines(t, shardTS, sv.ID)
	for _, line := range lines[1 : len(lines)-1] {
		shard = append(shard, append(line, '\n'))
	}

	// Build the store state a crashed coordinator leaves behind: the
	// job admitted but not terminal, lease 0 completed with its shard.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory()
	const id = "j000001"
	if err := mem.Admit(id, specJSON, false); err != nil {
		t.Fatal(err)
	}
	if err := mem.PutShard(id, 0, shard); err != nil {
		t.Fatal(err)
	}
	if err := mem.PutLease(id, store.LeaseSnap{Idx: 0, Lo: 0, Hi: 3, Epoch: 1,
		State: store.LeaseCompleted, Peer: "peer", Lines: len(shard)}); err != nil {
		t.Fatal(err)
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
