// Package serve is the long-running simulation service behind the
// ppserved binary: an HTTP façade (stdlib net/http only) over the
// repository's simulation engine and experiment harness.
//
// Clients POST JSON job specs to /v1/jobs — one supervised run
// ("sim"), a multi-trial batch ("batch", fault campaigns included) or
// the Table 1 reproduction ("table1") — and the
// service validates them against the protocol registry and the fault
// parser before admission, queues them FIFO into a bounded queue, and
// executes them on a fixed worker pool. Results stream back as NDJSON
// using the same versioned journal records the CLIs write (see
// docs/observability.md and docs/service.md), so a service client and
// a CLI user read one schema.
//
// The service is deterministic where the engine is: a job's resolved
// seed is echoed at admission, and an identical seeded job replays the
// equivalent direct library call record-for-record, byte-identical
// modulo the wall-clock fields (elapsedNs/wallNs/utilization and the
// service's own job records). The e2e test in this package pins that
// contract.
//
// Backpressure and shutdown are explicit: a full queue answers 429
// with a Retry-After estimate; Drain stops admission (503), lets
// queued and running jobs finish, and escalates to cooperative
// cancellation — honored by every job kind within one supervision
// check — when its grace context expires.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popnaming/internal/dist"
	"popnaming/internal/obs"
	"popnaming/internal/serve/store"
)

// Config sizes a Server.
type Config struct {
	// Workers is the job worker pool size (0: GOMAXPROCS).
	Workers int
	// QueueCap bounds the job queue; a submission beyond it is
	// rejected with 429 (0: 64). GET /readyz answers 503 once the
	// queue holds 80% of it (at least 1 job), so load balancers stop
	// routing before submissions start drawing 429s.
	QueueCap int
	// Sink, when non-nil, receives the service journal: one JobRec per
	// lifecycle transition of every job. It must be safe for
	// concurrent use (obs.JournalSink is).
	Sink obs.Sink
	// Store is the job durability layer (nil: a fresh in-memory store,
	// the pre-durability behavior). With a store.WAL the server replays
	// it at construction: terminal jobs come back with their result
	// logs, jobs queued or running at crash time are re-queued — their
	// resolved seeds re-derive the same attempt seeds, so the re-run is
	// byte-identical modulo wall-clock fields. The caller owns the
	// store's lifetime and closes it after Drain.
	Store JobStore
	// BufferBytes caps one job's in-RAM result buffer: past it the
	// buffered NDJSON lines spill to the Store and stream reads fetch
	// them back on demand (<= 0: 8 MiB).
	BufferBytes int64
	// Peers lists base URLs of peer ppserved nodes (e.g.
	// "http://10.0.0.2:8080"). When non-empty, untraced batch jobs are
	// split into per-lease trial ranges executed across the peers and
	// the local node (see internal/dist and docs/service.md "Sharded
	// execution"). Empty: every job runs locally, the pre-dist behavior.
	Peers []string
	// LeaseTrials is the number of trials per lease when sharding
	// (0: 64). A batch smaller than one lease runs as a single lease.
	LeaseTrials int
	// LeaseTimeout caps one lease attempt on a peer. It is also the
	// ceiling for the adaptive deadline derived from the observed
	// per-kind execution histogram (0: 2m).
	LeaseTimeout time.Duration
	// DistRetries bounds per-lease re-issues to peers before the lease
	// is pinned to local execution (0: 3; negative: no peer retries —
	// first failure falls back to local).
	DistRetries int
	// StreamWriteTimeout bounds each write on a results stream: a
	// client that stops reading for this long is disconnected instead
	// of pinning a handler goroutine and its buffers forever
	// (<= 0: 60s).
	StreamWriteTimeout time.Duration
}

// Sizing defaults for Config's zero values.
const (
	defaultBufferBytes        = 8 << 20
	defaultLeaseTrials        = 64
	defaultLeaseTimeout       = 2 * time.Minute
	defaultDistRetries        = 3
	defaultStreamWriteTimeout = 60 * time.Second
)

// Server is the simulation service: a handler, a bounded FIFO job
// queue and a worker pool. Create with New, serve via Handler, stop
// via Drain (graceful) or Close (immediate).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	met   *metrics
	sink  obs.Sink
	store JobStore
	// peers are the long-lived shard executors for Config.Peers, one
	// per base URL; they persist health state (failure windows,
	// quarantine) across jobs. Empty when the server runs standalone.
	peers []*dist.Peer

	// baseCtx parents every job context; baseCancel is the
	// drain-escalation switch that aborts all in-flight work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu sync.Mutex
	// jobs holds the queued and running jobs, by ID. A job the store
	// has sealed leaves it for finished (retire); one the store could
	// not seal stays, terminal, and answers from memory.
	jobs map[string]*Job
	// finished is the finished-job index, by job number (jobNumber):
	// every done, failed and canceled job, run here, restored at boot
	// or kept as a shard. An entry answers its job's result stream and
	// a cache hit; the store answers the rest of its view (Lookup).
	finished finishedIndex
	// sources is the result cache: for each canonical-spec hash, the
	// number of the first done job with it. It answers every identical
	// resubmission itself, from that job's stored stream (cachedRun);
	// a hit is not a job.
	sources  map[[sha256.Size]byte]uint32
	nextID   uint32
	queue    chan *Job
	draining bool

	wg sync.WaitGroup // worker goroutines
}

// routePatterns lists the service routes in documentation order; the
// strings double as metrics keys.
var routePatterns = []string{
	"POST /v1/jobs",
	"GET /v1/jobs",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/results",
	"POST /v1/jobs/{id}/cancel",
	"GET /metrics",
	"GET /healthz",
	"GET /readyz",
}

// DefaultQueueCap is the job queue capacity of a Config that leaves
// QueueCap zero.
const DefaultQueueCap = 64

// New builds a Server, replays its job store and starts the worker
// pool. Replay restores terminal jobs (views, summaries and result
// logs all served from the store) and re-queues jobs that were queued
// or running when the previous process died — ahead of any new
// submission, preserving admission order. Replaying a corrupt store
// returns an error rather than a half-restored server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Sink == nil {
		cfg.Sink = obs.Discard
	}
	if cfg.LeaseTrials <= 0 {
		cfg.LeaseTrials = defaultLeaseTrials
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = defaultLeaseTimeout
	}
	if cfg.DistRetries == 0 {
		cfg.DistRetries = defaultDistRetries
	} else if cfg.DistRetries < 0 {
		cfg.DistRetries = 0
	}
	if cfg.StreamWriteTimeout <= 0 {
		cfg.StreamWriteTimeout = defaultStreamWriteTimeout
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = defaultBufferBytes
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sink:     cfg.Sink,
		store:    cfg.Store,
		jobs:     make(map[string]*Job),
		finished: make(finishedIndex),
		sources:  make(map[[sha256.Size]byte]uint32),
	}
	for _, base := range cfg.Peers {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		s.peers = append(s.peers, &dist.Peer{Base: base})
	}
	s.met = newMetrics(s)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	requeue, err := s.restore()
	if err != nil {
		return nil, err
	}
	// Re-queued jobs ride along in the same channel ahead of new
	// admissions; the extra capacity guarantees they fit even when the
	// crash left more in flight than QueueCap (admission still checks
	// against QueueCap, so the configured backpressure is unchanged).
	s.queue = make(chan *Job, cfg.QueueCap+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}

	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs", s.handleList)
	s.route("GET /v1/jobs/{id}", s.handleGet)
	s.route("GET /v1/jobs/{id}/results", s.handleResults)
	s.route("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /readyz", s.handleReady)

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// restore replays the job store into the server's maps: terminal
// snapshots become finished-job index entries served straight from the
// store (the first done job per key becomes its result-cache source,
// its log unread), non-terminal snapshots get their partial result
// logs reset and are returned for re-queueing — unless their spec now
// fails admission, which finalizes them failed. Only IDs this server
// writes (jobID) replay; any other is a corrupt store.
// Runs single-threaded at construction, before any worker or handler
// exists.
func (s *Server) restore() ([]*Job, error) {
	snaps, err := s.store.Replay()
	if err != nil {
		return nil, fmt.Errorf("job store replay: %w", err)
	}
	var requeue []*Job
	for _, snap := range snaps {
		n, ok := jobNumber(snap.ID)
		if !ok {
			return nil, fmt.Errorf("job store replay: %q is not a job ID", snap.ID)
		}
		s.nextID = max(s.nextID, n) // new IDs continue past every restored one
		var spec Spec
		if err := json.Unmarshal(snap.Spec, &spec); err != nil {
			// CRC framing makes a corrupt spec body effectively
			// unreachable; skip the record rather than refuse to boot.
			continue
		}
		var v *Prepared
		if !store.Terminal(snap.State) {
			var verr *Error
			if v, verr = prepare(spec); verr != nil {
				// The spec passed admission before the crash but fails
				// it now (an admission rule or registry changed across
				// the restart): journal the job failed instead of
				// re-running, and serve it as the finished job a later
				// boot replays.
				snap.State, snap.Error = store.StateFailed, "restore: "+verr.Message
				_ = s.store.Finalize(snap.ID, store.Final{State: snap.State, Error: snap.Error})
			}
		}
		if store.Terminal(snap.State) {
			s.finished.set(n, newFinishedJob(snap.ResultLines, JobState(snap.State), spec.Kind))
			s.met.moveJob("", JobState(snap.State))
			if snap.State == store.StateDone && snap.ResultLines > 0 {
				s.rememberLocked(sha256.Sum256(snap.Spec), n)
			}
			s.met.restored.Inc()
			continue
		}
		if err := s.store.ResetResults(snap.ID); err != nil {
			return nil, fmt.Errorf("job store reset %s: %w", snap.ID, err)
		}
		_ = s.store.SetState(snap.ID, store.StateQueued)
		j := s.newJob(snap.ID, v)
		j.sum, j.key = cacheKey(snap.Spec)
		s.jobs[j.ID] = j
		s.met.moveJob("", StateQueued)
		s.met.requeued.Inc()
		requeue = append(requeue, j)
	}
	return requeue, nil
}

// newJob builds an admitted job wired to the store-backed buffer.
func (s *Server) newJob(id string, v *Prepared) *Job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{ID: id, v: v, buf: s.newJobBuffer(id), ctx: ctx, cancel: cancel,
		state: StateQueued, admitted: time.Now()}
	if v.spec.Trace {
		// The trace ID derives from the resolved seed, the root span
		// covers admission to terminal, and the queue span measures
		// time-to-execution. Span records flow into the job's result
		// buffer through a counting wrapper so /metrics sees the span
		// volume.
		j.traceID = obs.NewTraceID(v.spec.Seed)
		root := obs.SpanContext{Trace: j.traceID, Sink: &spanSink{buf: j.buf, emitted: &s.met.spans}}
		j.rootSpan = root.Start("job", 0)
		j.queueSpan = j.rootSpan.Context().Start("queue", 0)
	}
	return j
}

// newJobBuffer wires a job's result buffer to the store: spills append
// to the job's durable result log (counted in the spill metrics),
// reads of spilled lines fetch back from it, and emits after
// finalization land in the late_emits counter.
func (s *Server) newJobBuffer(id string) *buffer {
	return newBuffer(s.cfg.BufferBytes,
		func(lines [][]byte) error {
			var n int64
			for _, line := range lines {
				n += int64(len(line))
			}
			if err := s.store.AppendResults(id, lines); err != nil {
				s.met.storeWriteErrors.Inc()
				return err
			}
			s.met.bufSpills.Inc()
			s.met.bufSpilledBytes.Add(uint64(n))
			return nil
		},
		func(from, to int) ([][]byte, error) { return s.store.ReadResults(id, from, to) },
		s.met.lateEmits.Inc,
	)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers a handler with per-route request/latency metrics.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.met.observe(pattern, time.Since(t0))
	})
}

// Submit validates and admits a job programmatically (the HTTP POST
// body goes through exactly this path) and returns the job's view. A
// cache hit admits nothing and returns the key's source job, already
// done. On rejection the *Error carries the HTTP status and, for
// fault-plan errors, the offending token's location.
func (s *Server) Submit(spec Spec) (JobView, *Error) {
	a, err := s.submit(spec, "")
	if err != nil {
		return JobView{}, err
	}
	if a.job != nil {
		return a.job.view(), nil
	}
	return s.Job(a.id)
}

// admission is submit's answer: the admitted job and its ID on a miss;
// on a cache hit the source's ID, kind and whole stored stream. key is
// the canonical-spec hash either way.
type admission struct {
	job   *Job
	id    string
	key   string
	kind  string
	lines [][]byte
}

// submit is the admission path. clientKey, when non-empty, is the
// caller's Idempotency-Key header: it must equal the canonical spec
// hash (the key the server would compute), turning it into an
// end-to-end check that the client resubmitted the spec it thinks it
// did. A cache hit is a lookup, not a job: it writes nothing to the
// store and journals one record, the source's terminal record marked
// cached and without wall-clock fields. Equal keys mean equal canonical
// specs, so that record is built from the submitted spec.
func (s *Server) submit(spec Spec, clientKey string) (admission, *Error) {
	v, verr := prepare(spec)
	if verr != nil {
		return admission{}, verr
	}
	canonical, err := canonicalSpec(v)
	if err != nil {
		return admission{}, &Error{Status: http.StatusInternalServerError, Kind: "internal",
			Message: fmt.Sprintf("canonicalize spec: %v", err)}
	}
	sum, key := cacheKey(canonical)
	if clientKey != "" && clientKey != key {
		return admission{}, &Error{Status: http.StatusBadRequest, Kind: "idempotency-mismatch",
			Message: fmt.Sprintf("Idempotency-Key %q does not match the canonical spec hash %s", clientKey, key)}
	}
	// The source's log is read before s.mu is taken: admission never
	// waits on another job's store read.
	src, lines := s.cachedRun(sum)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return admission{}, &Error{Status: http.StatusServiceUnavailable, Kind: "draining",
			Message: "server is draining; no new jobs accepted"}
	}
	if src != "" {
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		rec := jobRec(src, &v.spec, StateDone)
		rec.Cached = true
		_ = s.sink.Emit(rec)
		return admission{id: src, key: key, kind: v.spec.Kind, lines: lines}, nil
	}
	s.met.cacheMisses.Inc()
	// Capacity is checked explicitly under s.mu (every producer holds
	// it, workers only consume), so the admission record can be written
	// before the send — which then cannot block — and a worker can
	// never pick up a job whose admission the store has not yet seen.
	if len(s.queue) >= s.cfg.QueueCap {
		depth := len(s.queue)
		s.met.rejected.Inc()
		s.mu.Unlock()
		return admission{}, &Error{Status: http.StatusTooManyRequests, Kind: "queue-full",
			Message:       fmt.Sprintf("job queue full (%d queued)", depth),
			RetryAfterSec: s.retryAfterSec(depth),
		}
	}
	s.nextID++
	id := jobID(s.nextID)
	if err := s.store.Admit(id, canonical, v.seedDerived); err != nil {
		s.nextID-- // the ID was never exposed
		s.mu.Unlock()
		return admission{}, &Error{Status: http.StatusInternalServerError, Kind: "store",
			Message: fmt.Sprintf("job store admit: %v", err)}
	}
	j := s.newJob(id, v)
	j.sum, j.key = sum, key
	s.jobs[id] = j
	s.met.submitted.Inc()
	s.met.moveJob("", StateQueued)
	s.queue <- j
	s.mu.Unlock()
	_ = s.sink.Emit(j.rec())
	return admission{job: j, id: id, key: key}, nil
}

// lookup finds job id: a queued or running job, or a finished job's
// index entry (ok). Both come from one critical section, so a job
// moving from the live table to the index is found in one or the
// other.
func (s *Server) lookup(id string) (j *Job, fin finishedJob, ok bool) {
	n, valid := jobNumber(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j = s.jobs[id]; j != nil {
		return j, fin, true
	}
	if valid {
		fin, ok = s.finished.get(n)
	}
	return nil, fin, ok
}

// notFound is the 404 for an unknown job ID.
func notFound(id string) *Error {
	return &Error{Status: http.StatusNotFound, Kind: "not-found", Message: fmt.Sprintf("no job %q", id)}
}

// storeError is the 500 for a finished job the store cannot read back.
func storeError(err error) *Error {
	return &Error{Status: http.StatusInternalServerError, Kind: "store", Message: err.Error()}
}

// Job returns the view of job id, queued, running or finished.
func (s *Server) Job(id string) (JobView, *Error) {
	j, fin, ok := s.lookup(id)
	switch {
	case j != nil:
		return j.view(), nil
	case ok:
		return s.finishedView(id, fin)
	default:
		return JobView{}, notFound(id)
	}
}

// finishedView rebuilds a finished job's view: its state and record
// count from the index entry, the rest from the job's store records
// (one Lookup).
func (s *Server) finishedView(id string, fin finishedJob) (JobView, *Error) {
	snap, err := s.store.Lookup(id)
	if err != nil {
		return JobView{}, storeError(err)
	}
	var sp Spec
	if err := json.Unmarshal(snap.Spec, &sp); err != nil {
		return JobView{}, storeError(fmt.Errorf("job %s: spec: %w", id, err))
	}
	_, key := cacheKey(snap.Spec)
	view := specView(id, &sp, snap.SeedDerived, key)
	view.State, view.Records = fin.jobState(), fin.lines()
	view.Error, view.WallNS = snap.Error, snap.WallNS
	if len(snap.Summary) > 0 {
		var sum JobSummary
		if err := json.Unmarshal(snap.Summary, &sum); err == nil {
			view.Summary = &sum
		}
	}
	return view, nil
}

// runJob is the worker-side lifecycle: queued -> running -> terminal,
// with the terminal record appended to the result stream and the
// service journal and the buffer closed so streaming clients get EOF.
func (s *Server) runJob(j *Job) {
	if !j.begin() {
		s.finalize(j)
		return
	}
	s.met.moveJob(StateQueued, StateRunning)
	if km := s.met.kinds[j.v.spec.Kind]; km != nil {
		km.queueWaitUS.Observe(j.queueWait() / int64(time.Microsecond))
	}
	_ = s.sink.Emit(j.rec()) // running
	atomic.AddInt64(&s.met.active, 1)
	func() {
		defer atomic.AddInt64(&s.met.active, -1)
		defer func() {
			if p := recover(); p != nil {
				j.fail(fmt.Sprintf("panic: %v", p))
			}
		}()
		if err := s.execute(j); err != nil {
			j.fail(err.Error())
		} else if serr := j.buf.storeFailure(); serr != nil {
			// Workload sinks swallow per-emit errors, so a spill that
			// failed mid-run (disk full, write error) surfaces here: the
			// job fails with the store detail instead of finishing "done"
			// with records silently stuck in RAM.
			j.fail(fmt.Sprintf("store: %v", serr))
		}
	}()
	j.mu.Lock()
	if j.state == StateRunning {
		if j.ctx.Err() != nil {
			j.state = StateCanceled
			j.errMsg = "canceled"
		} else {
			j.state = StateDone
		}
	}
	j.mu.Unlock()
	s.finalize(j)
}

// finalize seals a terminal job exactly once: stamps the wall clock,
// appends the terminal job record to the result stream and the
// service journal, seals the buffer (everything spills to the store),
// persists the terminal state, retires the job to the finished-job
// index, closes the buffer (EOF for streamers), releases the job
// context and bumps the outcome counters. Everything up to the store
// write happens under j.mu, so the store's record order matches the
// job's actual transition order even against a racing cancel (lock
// order: j.mu, then buffer/store locks; never the server's mu, which
// retire takes after j.mu is released).
//
// The job is retired before its streams see EOF: a client that read
// one to EOF and resubmits finds the job in the result cache.
func (s *Server) finalize(j *Job) {
	j.mu.Lock()
	if j.finalized || !j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	from := StateQueued
	if !j.started.IsZero() {
		from = StateRunning
		j.wallNS = time.Since(j.started).Nanoseconds()
	} else if !j.admitted.IsZero() {
		// Canceled while queued: the whole residence was queue wait.
		j.queueWaitNS = time.Since(j.admitted).Nanoseconds()
	}
	rec := j.recLocked()
	state := j.state
	wall := j.wallNS
	queueWait := j.queueWaitNS
	var summary json.RawMessage
	if j.summary != nil {
		summary, _ = json.Marshal(j.summary)
	}

	// The root span (admission -> terminal) and, for jobs that never
	// started, the still-open queue span are sealed before the terminal
	// record, so a traced stream reads: spans, then the job record,
	// then EOF. Only the finalization winner reaches this point, so the
	// spans stay single-writer.
	if j.rootSpan != nil {
		j.queueSpan.End()
		j.rootSpan.SetQueueWait(time.Duration(queueWait))
		j.rootSpan.End()
	}
	_ = j.buf.Emit(rec)
	total := j.buf.len()
	sealed := j.buf.seal() == nil // a failed final spill already counted via the spill hook
	if err := s.store.Finalize(j.ID, store.Final{
		State: string(state), Error: rec.Error, Summary: summary,
		WallNS: wall, ResultLines: total,
	}); err != nil {
		s.met.storeWriteErrors.Inc()
		sealed = false
	}
	j.mu.Unlock()
	if sealed {
		s.retire(j, total, state)
	}
	j.buf.close()
	_ = s.sink.Emit(rec)
	j.cancel()
	s.met.moveJob(from, state)
	switch state {
	case StateDone:
		s.met.completed.Inc()
	case StateFailed:
		s.met.failed.Inc()
	case StateCanceled:
		s.met.canceled.Inc()
	}
	if wall > 0 {
		s.met.jobWallMS.Observe(wall / int64(time.Millisecond))
		if km := s.met.kinds[j.v.spec.Kind]; km != nil {
			km.execMS.Observe(wall / int64(time.Millisecond))
		}
	}
}

// retire moves a job the store has sealed from the live table into the
// finished-job index, and a done job into the result cache unless its
// key already has a source.
func (s *Server) retire(j *Job, lines int, state JobState) {
	n, _ := jobNumber(j.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.ID)
	s.finished.set(n, newFinishedJob(lines, state, j.v.spec.Kind))
	if state == StateDone {
		s.rememberLocked(j.sum, n)
	}
}

// Cancel requests cancellation of job id and returns its view. Queued
// jobs become terminal immediately; running jobs abort at their next
// supervision check (within one Supervision.Slice of interactions) and
// keep their partial result stream. Canceling a finished job is a
// no-op.
func (s *Server) Cancel(id string) (JobView, *Error) {
	if j, _, _ := s.lookup(id); j != nil {
		j.mu.Lock()
		wasQueued := j.state == StateQueued
		if wasQueued {
			j.state = StateCanceled
			j.errMsg = "canceled while queued"
		}
		j.mu.Unlock()
		j.cancel()
		if wasQueued {
			s.finalize(j)
		}
	}
	return s.Job(id)
}

// Drain performs a graceful shutdown: admission stops (submissions
// answer 503), then Drain blocks until every queued and running job
// reaches a terminal state. If ctx expires first, every in-flight
// job's context is canceled — each aborts at its next supervision
// check, its partial results already streamed and journaled — and
// Drain waits for the (now fast) remainder. Safe to call more than
// once; later calls just wait.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
}

// Close is Drain with no grace: every job is canceled immediately.
func (s *Server) Close() {
	s.baseCancel()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(expired)
}

// ---- HTTP handlers ----

// maxBodyBytes bounds a job submission body.
const maxBodyBytes = 1 << 20

// decodeSpec reads a submission body: one spec object, with no
// unknown fields and nothing after it.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("trailing data after the spec object")
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, badRequest("bad job body: %v", err))
		return
	}
	a, jerr := s.submit(spec, r.Header.Get("Idempotency-Key"))
	if jerr != nil {
		writeError(w, jerr)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+a.id)
	w.Header().Set("Idempotency-Key", a.key)
	switch {
	case a.job != nil:
		writeJSON(w, http.StatusAccepted, a.job.view())
	case acceptsNDJSON(r):
		// A hit's source is done and its whole stream already read, so
		// answering with it spares the client the GET /results round
		// trip. A miss still answers 202 at once and never blocks on the
		// run.
		s.stream(w, r, a.kind, a.lines, nil, false)
	default:
		view, verr := s.Job(a.id)
		if verr != nil {
			writeError(w, verr)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	}
}

// acceptsNDJSON reports whether r's Accept header lists the NDJSON
// media type (parameters ignored).
func acceptsNDJSON(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		for v != "" {
			var mt string
			mt, v, _ = strings.Cut(v, ",")
			mt, _, _ = strings.Cut(mt, ";")
			if strings.EqualFold(strings.TrimSpace(mt), ndjsonType) {
				return true
			}
		}
	}
	return false
}

// handleList answers every job in admission order, which is ID order:
// live jobs from memory, finished ones from the store.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ns := make([]uint32, 0, len(s.jobs))
	for id := range s.jobs {
		n, _ := jobNumber(id)
		ns = append(ns, n)
	}
	for c, chunk := range s.finished {
		for i, fin := range chunk {
			if fin != (finishedJob{}) {
				ns = append(ns, c*finishedChunk+uint32(i))
			}
		}
	}
	s.mu.Unlock()
	slices.Sort(ns)
	views := make([]JobView, 0, len(ns))
	for _, n := range ns {
		view, err := s.Job(jobID(n))
		if err != nil {
			writeError(w, err)
			return
		}
		views = append(views, view)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// ndjsonType is the media type of a result stream.
const ndjsonType = "application/x-ndjson"

// handleResults streams the job's result records as NDJSON. By
// default the stream follows a live job: records are flushed as the
// run produces them and the connection closes when the job reaches a
// terminal state. With ?follow=false the handler returns the records
// buffered so far and closes immediately. A finished job's whole
// stored log is read once and written.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, fin, ok := s.lookup(id)
	switch {
	case j != nil:
		s.stream(w, r, j.v.spec.Kind, nil, j, r.URL.Query().Get("follow") != "false")
	case ok:
		lines, err := s.store.ReadResults(id, 0, fin.lines())
		if err != nil {
			writeError(w, storeError(err))
			return
		}
		s.stream(w, r, fin.kindName(), lines, nil, false)
	default:
		writeError(w, notFound(id))
	}
}

// stream answers r with a result stream: 200, NDJSON, one
// connection-time observation in the job kind's stream histogram. It
// is the one writer of a result stream, for GET /results and for a
// cache hit's POST answer alike. lines holds records already read (a
// finished job's whole stored log): they are written first. A live
// job j's buffer is then read past them, until EOF when follow is set.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, kind string, lines [][]byte, j *Job, follow bool) {
	if km := s.met.kinds[kind]; km != nil {
		t0 := time.Now()
		defer func() { km.streamMS.Observe(time.Since(t0).Milliseconds()) }()
	}
	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Slow-client guard: every batch of writes runs under a fresh write
	// deadline, so a client that stops reading (a stalled follower with
	// a full TCP window) is disconnected instead of pinning this
	// goroutine and the job's buffers for the rest of the process.
	// Recorders and writers without deadline support just decline the
	// controller calls — the guard degrades to the old behavior.
	rc := http.NewResponseController(w)
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }() // clean slate for keep-alive reuse

	sent := 0
	write := func(lines [][]byte) bool {
		if len(lines) == 0 {
			return true
		}
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					s.met.streamWriteTimeouts.Inc()
				}
				return false
			}
		}
		sent += len(lines)
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !write(lines) || j == nil {
		return
	}

	// Wake the condition wait when the client goes away, so a
	// disconnected follower releases its goroutine promptly.
	stop := context.AfterFunc(r.Context(), j.buf.wake)
	defer stop()

	// A non-follow read never blocks: the stop condition is already
	// true, so wait returns whatever is buffered right now.
	stopWaiting := func() bool { return !follow || r.Context().Err() != nil }
	for {
		lines, closed, err := j.buf.wait(sent, stopWaiting)
		if err != nil {
			// Lines already spilled to the store could not be read
			// back; the NDJSON body may be mid-stream, so all we can
			// do is stop cleanly.
			return
		}
		if !write(lines) || closed || stopWaiting() {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.met.reg.WriteTables(w)
		s.renderLiveJobs(w)
	case "prometheus":
		w.Header().Set("Content-Type", obs.PromContentType)
		// A write error means the client went away mid-body; there is
		// no one left to report it to.
		_ = s.met.reg.WritePrometheus(w)
	default:
		writeError(w, badRequest("unknown metrics format %q (omit for tables, or \"prometheus\")", format))
	}
}

// handleHealth is the liveness probe: 200 while the process serves
// HTTP at all, draining included — a draining server is alive, it is
// just not ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// Ready reports whether the server should receive new traffic: not
// draining and queue depth below the high-watermark. The reason is
// "ready", "draining" or "saturated".
func (s *Server) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return false, "draining"
	case len(s.queue) >= s.highWater():
		return false, "saturated"
	default:
		return true, "ready"
	}
}

// highWater is the queue depth at which the server turns unready: 80%
// of QueueCap, at least 1.
func (s *Server) highWater() int { return max(s.cfg.QueueCap*8/10, 1) }

// handleReady is the readiness probe: 503 while draining or while the
// queue sits at or above the high-watermark, so load balancers stop
// routing before submissions start drawing 429s.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	s.mu.Lock()
	depth := len(s.queue)
	s.mu.Unlock()
	writeJSON(w, status, map[string]any{
		"status":     reason,
		"queueDepth": depth,
		"highWater":  s.highWater(),
	})
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError renders a structured error as {"error": {...}}, setting
// Retry-After on 429s.
func writeError(w http.ResponseWriter, e *Error) {
	if e.Status == http.StatusTooManyRequests && e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfterSec))
	}
	writeJSON(w, e.Status, map[string]*Error{"error": e})
}
