//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"popnaming/internal/serve/store"
)

// Heap sizes are measured only in builds without the race detector,
// like the allocation pins.

// TestFinishedJobHeap pins what a finished job costs the server's
// heap: its finished-job index entry, its result-cache entry and the
// WAL's record offsets, not its Job, buffer, context and summary.
// Small jobs go through one WAL-backed server's handler as a grid
// cell goes: two clients, each posting a fresh spec and reading its
// result stream to EOF. Past a warm-up, the live heap after a GC must
// grow by under 160 B per finished job, a tenth of what keeping every
// job cost.
func TestFinishedJobHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes 21,000 jobs")
	}
	w, err := store.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := New(Config{Workers: 2, QueueCap: 64, Store: w})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var seed atomic.Int64
	cell := func() {
		body, _ := json.Marshal(quickSpec(seed.Add(1)))
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if post.Code != http.StatusAccepted {
			t.Errorf("submit: status %d: %s", post.Code, post.Body)
			return
		}
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, post.Header().Get("Location")+"/results", nil))
		if get.Code != http.StatusOK || !bytes.Contains(get.Body.Bytes(), []byte(`"state":"done"`)) {
			t.Errorf("results: status %d: %s", get.Code, get.Body)
		}
	}
	push := func(jobs int) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < jobs/2 && !t.Failed(); i++ {
					cell()
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	const warm, jobs = 1_000, 20_000
	push(warm)
	before := liveHeap()
	push(jobs)
	after := liveHeap()
	perJob := float64(after-before) / jobs
	t.Logf("live heap %d -> %d B over %d jobs: %.1f B per job", before, after, jobs, perJob)
	if perJob >= 160 {
		t.Errorf("live heap grew %.1f B per finished job, want under 160", perJob)
	}
}
