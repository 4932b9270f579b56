package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchPeers starts n real ppserved peers and returns their URLs.
// benchDistRun's distinct seeds keep every lease a real simulation,
// never a cache hit.
func benchPeers(b *testing.B, n int) []string {
	b.Helper()
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ps, err := New(Config{Workers: 1, QueueCap: 64})
		if err != nil {
			b.Fatal(err)
		}
		pts := httptest.NewServer(ps.Handler())
		b.Cleanup(func() { pts.Close(); ps.Close() })
		urls = append(urls, pts.URL)
	}
	return urls
}

// benchDistRun submits one sharded batch on a coordinator configured
// with the given peers and reads the merged stream to EOF, returning
// the wall time. Each call uses a distinct seed so nothing upstream
// can dedupe the work.
func benchDistRun(b *testing.B, ts *httptest.Server, seed int64) time.Duration {
	b.Helper()
	spec := distSpec()
	spec.Seed = seed
	spec.Trials = 32
	raw, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		b.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + view.ID + "/results")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, rr.Body); err != nil {
		b.Fatal(err)
	}
	rr.Body.Close()
	return time.Since(t0)
}

func benchDist(b *testing.B, peers []string) {
	s, err := New(Config{
		Workers: 2, QueueCap: 8,
		Peers: peers, LeaseTrials: 4, DistRetries: 2,
		LeaseTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	benchDistRun(b, ts, 1) // warm: connections, first compile
	b.ResetTimer()
	var total time.Duration
	trials := 0
	for i := 0; i < b.N; i++ {
		total += benchDistRun(b, ts, int64(100+i))
		trials += 32
	}
	b.StopTimer()
	if total > 0 {
		b.ReportMetric(float64(trials)/total.Seconds(), "trials/sec")
	}
}

// BenchmarkDistSharded measures end-to-end batch wall clock for the
// same 32-trial job on 1 node (no peers) vs fanned out across 2 and 4
// live peers (bench-dist records the series in BENCH_PR9.json). On a
// single-core host the sharded runs mostly measure coordination
// overhead — the interesting deltas need real hardware parallelism.
func BenchmarkDistSharded(b *testing.B) {
	for _, n := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			benchDist(b, benchPeers(b, n))
		})
	}
}

// BenchmarkDistDegraded measures degraded-mode throughput: one live
// peer plus one dead one, so every lease routed to the dead peer pays
// a failure, a backoff and a re-issue before completing elsewhere.
func BenchmarkDistDegraded(b *testing.B) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	peers := append(benchPeers(b, 1), deadURL)
	benchDist(b, peers)
}
