package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkServeLoad measures the service under closed-loop load:
// each client repeatedly submits a small seeded sim job and reads its
// result stream to EOF, so every iteration covers admission, queueing,
// execution and streaming. Reported metrics are per-job latency
// percentiles and aggregate throughput at 1, 8 and 64 concurrent
// clients (the bench-serve Makefile target records them in
// BENCH_PR5.json).
func BenchmarkServeLoad(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServeLoad(b, clients)
		})
	}
}

func benchServeLoad(b *testing.B, clients int) {
	s, err := New(Config{QueueCap: 2*clients + 8})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	client := ts.Client()
	client.Timeout = 2 * time.Minute

	// Every submission, retries after a 429 included, takes a fresh
	// seed, so no job is a cache hit and the benchmark keeps measuring
	// real simulations (BenchmarkAdmitCacheHit measures hits).
	var seed atomic.Int64
	runOne := func() (time.Duration, error) {
		spec, err := json.Marshal(Spec{
			Kind: KindSim, Protocol: "asym", P: 4, N: 4, Seed: seed.Add(1), Budget: 50_000,
		})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			return 0, nil // backpressure: retry, not a failure
		}
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return 0, fmt.Errorf("submit status %d: %s", resp.StatusCode, body)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			resp.Body.Close()
			return 0, err
		}
		resp.Body.Close()
		rr, err := client.Get(ts.URL + "/v1/jobs/" + view.ID + "/results")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, rr.Body)
		rr.Body.Close()
		if err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}

	// Warm one job through so connection setup and first-compile costs
	// sit outside the measurement.
	if _, err := runOne(); err != nil {
		b.Fatal(err)
	}

	var next int64
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for atomic.AddInt64(&next, 1) <= int64(b.N) {
				d, err := runOne()
				if err != nil {
					errs[c] = err
					return
				}
				if d > 0 {
					lats[c] = append(lats[c], d)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	b.ReportMetric(float64(pct(0.50).Nanoseconds()), "p50-ns/job")
	b.ReportMetric(float64(pct(0.99).Nanoseconds()), "p99-ns/job")
	b.ReportMetric(float64(len(all))/wall.Seconds(), "jobs/sec")
}
