package serve

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"popnaming/internal/obs"
	"popnaming/internal/report"
)

// metrics holds the service's counters and histograms, grouped by the
// section newMetrics registers them in, with their help text. Updates
// are single atomic writes and scrapes single atomic reads (the obs
// discipline); the routes and kinds maps are built once at
// construction and never mutated, so reads need no lock.
type metrics struct {
	reg obs.Registry

	// ppserved service. jobWallMS's mean drives the Retry-After
	// estimate; active counts the workers executing a job (int64 via
	// sync/atomic: it decrements).
	submitted, rejected, completed, failed, canceled obs.Counter
	spans, streamWriteTimeouts                       obs.Counter
	jobWallMS                                        obs.Histogram
	active                                           int64

	// Store and cache, distributed leases and simulation totals.
	restored, requeued, cacheHits, cacheMisses                     obs.Counter
	bufSpills, bufSpilledBytes, lateEmits, storeWriteErrors        obs.Counter
	leasesIssued, leasesReissued, leasesCompleted, leasesDuplicate obs.Counter
	leasesRestored, leaseFailures                                  obs.Counter
	trialsRun, trialsConverged, trialSteps, trialNonNull           obs.Counter

	// HTTP requests by route pattern and job phases by job kind.
	routes map[string]*routeMetric
	kinds  map[string]*kindMetric
}

type routeMetric struct {
	reqs  obs.Counter
	latUS obs.Histogram
}

// kindMetric splits one job kind's latency into its phases: time in
// the queue (admission -> execution start, microseconds), execution
// wall clock (milliseconds) and result-stream connection time
// (milliseconds, one observation per stream written: each /results
// request, and each cache hit answered in its POST response).
type kindMetric struct {
	queueWaitUS obs.Histogram
	execMS      obs.Histogram
	streamMS    obs.Histogram
}

// jobKinds lists the job kinds in documentation order; the strings
// double as metrics label values.
var jobKinds = []string{KindSim, KindBatch, KindTable1}

// jobStates lists the job lifecycle states in the order of the
// ppserved_jobs series.
var jobStates = []string{string(StateQueued), string(StateRunning), string(StateDone), string(StateFailed), string(StateCanceled)}

// newMetrics declares every service metric once (name, type, help text
// and label) in the sections and order both /metrics formats render.
// It reads s's config and store kind; gauges read the rest when scraped.
func newMetrics(s *Server) *metrics {
	m := &metrics{routes: map[string]*routeMetric{}, kinds: map[string]*kindMetric{}}
	r := &m.reg
	start := time.Now()
	// readyIs reads 1 while Ready reports reason, else 0.
	readyIs := func(reason string) func() float64 {
		return func() float64 {
			if _, why := s.Ready(); why == reason {
				return 1
			}
			return 0
		}
	}
	memStat := func(field func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return field(&ms)
		}
	}

	r.Section("ppserved service")
	r.Gauge("ppserved_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(start).Seconds() })
	r.Gauge("ppserved_workers", "Configured job worker pool size.", func() float64 { return float64(s.cfg.Workers) })
	r.Gauge("ppserved_workers_active", "Workers currently executing a job.", func() float64 { return float64(atomic.LoadInt64(&m.active)) })
	r.Gauge("ppserved_queue_depth", "Jobs waiting in the admission queue.", func() float64 { return float64(len(s.queue)) })
	r.Gauge("ppserved_queue_capacity", "Admission queue capacity.", func() float64 { return float64(s.cfg.QueueCap) })
	r.Gauge("ppserved_queue_high_watermark", "Queue depth at which /readyz turns unready.", func() float64 { return float64(s.highWater()) })
	r.Gauge("ppserved_draining", "1 while the server is draining, else 0.", readyIs("draining"))
	r.Gauge("ppserved_ready", "1 while /readyz answers 200, else 0.", readyIs("ready"))
	r.Counter("ppserved_jobs_submitted_total", "Jobs admitted to the queue.", &m.submitted)
	r.Counter("ppserved_jobs_rejected_total", "Submissions rejected with 429 (queue full).", &m.rejected)
	r.Counter("ppserved_jobs_completed_total", "Jobs that reached state done.", &m.completed)
	r.Counter("ppserved_jobs_failed_total", "Jobs that reached state failed.", &m.failed)
	r.Counter("ppserved_jobs_canceled_total", "Jobs that reached state canceled.", &m.canceled)
	r.Histogram("ppserved_job_wall_milliseconds", "Wall-clock time of finished jobs.", &m.jobWallMS)
	r.Counter("ppserved_spans_total", "Trace span records emitted into result streams.", &m.spans)
	r.Counter("ppserved_stream_write_timeouts_total", "Result streams disconnected by the per-write deadline (stalled clients).", &m.streamWriteTimeouts)

	r.Section("store and cache")
	r.Gauge("ppserved_store_info", "Job store implementation in use (value is always 1).", func() float64 { return 1 },
		obs.PromLabel{Name: "kind", Value: s.store.Kind()})
	r.Counter("ppserved_jobs_restored_total", "Terminal jobs restored from the store at boot.", &m.restored)
	r.Counter("ppserved_jobs_requeued_total", "Interrupted jobs re-queued from the store at boot.", &m.requeued)
	r.Gauge("ppserved_cache_entries", "Result-cache entries: canonical-spec keys with a done job whose stored stream answers resubmissions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sources))
	})
	r.Counter("ppserved_cache_hits_total", "Submissions served from the result cache without re-simulation.", &m.cacheHits)
	r.Counter("ppserved_cache_misses_total", "Submissions that missed the result cache.", &m.cacheMisses)
	r.Counter("ppserved_buffer_spills_total", "Live result-buffer spills to the job store.", &m.bufSpills)
	r.Counter("ppserved_buffer_spilled_bytes_total", "Bytes spilled from live result buffers to the job store.", &m.bufSpilledBytes)
	r.Counter("ppserved_late_emits_total", "Records emitted into a result buffer after job finalization (worker bugs).", &m.lateEmits)
	r.Counter("ppserved_store_write_errors_total", "Failed writes to the job store (spills, finalization, kept shards).", &m.storeWriteErrors)

	r.Section("distributed leases")
	r.Gauge("ppserved_dist_peers", "Configured peer ppserved nodes for sharded execution.", func() float64 { return float64(len(s.peers)) })
	r.Counter("ppserved_dist_leases_issued_total", "Lease attempts issued to executors (first issues and re-issues).", &m.leasesIssued)
	r.Counter("ppserved_dist_leases_reissued_total", "Lease re-issues after a failed attempt.", &m.leasesReissued)
	r.Counter("ppserved_dist_leases_completed_total", "Leases whose shard was accepted and merged.", &m.leasesCompleted)
	r.Counter("ppserved_dist_leases_duplicate_total", "Late duplicate shards discarded by lease epoch.", &m.leasesDuplicate)
	r.Counter("ppserved_dist_leases_restored_total", "Leases delivered from the result cache (shards kept earlier) without executing.", &m.leasesRestored)
	r.Counter("ppserved_dist_lease_failures_total", "Lease attempts ended by timeout, error status or connection loss.", &m.leaseFailures)

	r.Section("jobs by state")
	r.Gauges("ppserved_jobs", "Jobs currently known to the server, by lifecycle state.", "state", jobStates, s.jobsByState)

	r.Section("http requests")
	for _, route := range routePatterns {
		rm := &routeMetric{}
		label := obs.PromLabel{Name: "route", Value: route}
		r.Counter("ppserved_http_requests_total", "Handled HTTP requests by route.", &rm.reqs, label)
		r.Histogram("ppserved_http_request_latency_microseconds", "HTTP request latency by route.", &rm.latUS, label)
		m.routes[route] = rm
	}

	r.Section("job phases by kind")
	for _, k := range jobKinds {
		km := &kindMetric{}
		label := obs.PromLabel{Name: "kind", Value: k}
		r.Histogram("ppserved_job_queue_wait_microseconds", "Queue wait (admission to execution start) by job kind.", &km.queueWaitUS, label)
		r.Histogram("ppserved_job_exec_milliseconds", "Execution wall clock by job kind.", &km.execMS, label)
		r.Histogram("ppserved_job_stream_milliseconds", "Result-stream connection time by job kind.", &km.streamMS, label)
		m.kinds[k] = km
	}

	r.Section("simulation totals")
	r.Counter("ppserved_trials_total", "Simulation trials run across all jobs.", &m.trialsRun)
	r.Counter("ppserved_trials_converged_total", "Trials that reached silence within budget.", &m.trialsConverged)
	r.Counter("ppserved_interactions_total", "Scheduled interactions across all trials.", &m.trialSteps)
	r.Counter("ppserved_interactions_non_null_total", "State-changing interactions across all trials.", &m.trialNonNull)

	r.Section("go runtime")
	r.Gauge("go_goroutines", "Number of live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	r.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", memStat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	r.Gauge("go_heap_objects", "Number of allocated heap objects.", memStat(func(ms *runtime.MemStats) float64 { return float64(ms.HeapObjects) }))
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", memStat(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	r.CounterFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", memStat(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
	return m
}

// addTrials folds finished trials into the simulation totals.
func (m *metrics) addTrials(trials, converged int, steps, nonNull int64) {
	m.trialsRun.Add(uint64(trials))
	m.trialsConverged.Add(uint64(converged))
	m.trialSteps.Add(uint64(steps))
	m.trialNonNull.Add(uint64(nonNull))
}

// spanSink wraps a job's result buffer for span records, counting them
// into the service metrics on the way through. Safe for concurrent use
// when the wrapped sink is (buffer is).
type spanSink struct {
	buf     obs.Sink
	emitted *obs.Counter
}

func (ss *spanSink) Emit(rec any) error {
	ss.emitted.Inc()
	return ss.buf.Emit(rec)
}

// observe records one handled request on its route.
func (m *metrics) observe(route string, d time.Duration) {
	rm := m.routes[route]
	if rm == nil {
		return
	}
	rm.reqs.Inc()
	rm.latUS.Observe(d.Microseconds())
}

// jobsByState counts the server's jobs by lifecycle state in one pass,
// in the order of jobStates.
func (s *Server) jobsByState() []float64 {
	counts := make([]float64, len(jobStates))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		j.mu.Lock()
		counts[slices.Index(jobStates, string(j.state))]++
		j.mu.Unlock()
	}
	return counts
}

// renderLiveJobs writes the running jobs' live progress after the
// metric tables: the one /metrics table that shows per-job state
// rather than a metric, so it is rendered here, not registered.
func (s *Server) renderLiveJobs(w io.Writer) {
	var live []JobView
	s.mu.Lock()
	for _, j := range s.order {
		if v := j.view(); v.State == StateRunning {
			live = append(live, v)
		}
	}
	s.mu.Unlock()
	if len(live) == 0 {
		return
	}
	lt := report.NewTable("live jobs", "id", "kind", "protocol", "records", "steps", "nonNull", "quiet")
	for _, v := range live {
		if v.Live != nil {
			lt.AddRowf(v.ID, v.Kind, v.Protocol, v.Records, v.Live.Steps, v.Live.NonNull, v.Live.Quiet)
		} else {
			lt.AddRowf(v.ID, v.Kind, v.Protocol, v.Records, "-", "-", "-")
		}
	}
	fmt.Fprintln(w)
	lt.Render(w)
}

// Retry-After clamp bounds: an empty wall-time history answers the
// floor, and a huge backlog of slow jobs cannot push the advice past
// five minutes (clients should re-poll, not give up for the day).
const (
	minRetryAfterSec = 1
	maxRetryAfterSec = 300
)

// retryAfterSec estimates when a rejected client should retry: the
// mean job wall time scaled by the queue backlog per worker, clamped
// to [minRetryAfterSec, maxRetryAfterSec]. With no completed jobs yet
// it answers the floor.
func (s *Server) retryAfterSec(depth int) int {
	mean := s.met.jobWallMS.Mean() // ms
	if mean <= 0 {
		return minRetryAfterSec
	}
	est := int(mean*float64(depth+1)/float64(s.cfg.Workers)/1000.0) + 1
	if est < minRetryAfterSec {
		est = minRetryAfterSec
	}
	if est > maxRetryAfterSec {
		est = maxRetryAfterSec
	}
	return est
}
