package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/obs"
	"popnaming/internal/sim"
)

// Job kinds accepted by POST /v1/jobs.
const (
	// KindSim is one supervised execution: attempt seeds as in
	// namesim's supervised path, scheduler seed attemptSeed+1 (see
	// Server.runSim).
	KindSim = "sim"
	// KindBatch is a multi-trial batch (sim.RunBatch). A fault
	// campaign is a batch with "init": "arbitrary" and a plan of conv
	// groups; ppanalyze folds its journal into fault epochs.
	KindBatch = "batch"
	// KindTable1 is the Table 1 reproduction (experiments.Table1).
	KindTable1 = "table1"
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Admission bounds: the service refuses jobs that a CLI would accept
// but that would pin a shared server (huge bounds, unbounded budgets).
const (
	maxP          = 4096
	maxTrials     = 10_000
	maxBudget     = int(1) << 40
	maxJobWorkers = 64
	maxRetries    = 100
	maxDeadlineMS = int64(24) * 60 * 60 * 1000
)

// Spec is the JSON body of a job submission. Unknown fields are
// rejected; zero fields take the documented defaults. Seed 0 is
// auto-derived (obs.ResolveSeed) and the resolved value is echoed in
// the job view and every journal header, so any accepted job is
// replayable byte-for-byte.
type Spec struct {
	// Kind selects the job type: sim | batch | table1.
	Kind string `json:"kind"`

	// Protocol is a registry key (sim, batch; see
	// experiments.RegistryKeys). P is the population bound (default 8;
	// table1 default 6) and N the population size (default P).
	Protocol string `json:"protocol,omitempty"`
	P        int    `json:"p,omitempty"`
	N        int    `json:"n,omitempty"`

	// Sched (random | roundrobin | matching, default random) and Init
	// (zero | uniform | arbitrary, default zero) apply to sim and
	// batch jobs only.
	Sched string `json:"sched,omitempty"`
	Init  string `json:"init,omitempty"`

	// Engine selects the execution engine for sim and batch jobs:
	// "agent" (or empty, the default) runs the agent-array engine;
	// "count" runs the count-based (Gillespie) engine, whose per-step
	// cost is independent of N — N may then exceed P, up to the
	// pair-weight overflow bound. The count engine has no agent
	// identities, so identity-dependent features (the table1 kind,
	// fault plans, supervision, non-random schedulers, arbitrary init)
	// are rejected at admission with a structured 400 naming the
	// feature (see sim.CountUnsupported).
	Engine string `json:"engine,omitempty"`

	// Seed is the base RNG seed (0: auto-derive; echoed back).
	Seed int64 `json:"seed,omitempty"`
	// Budget is the per-trial interaction budget (default 50M; table1
	// 20M per cell run).
	Budget int `json:"budget,omitempty"`
	// Trials (batch, default 10) and Workers (default 1)
	// size the run. A sim job is exactly one trial.
	Trials  int `json:"trials,omitempty"`
	Workers int `json:"workers,omitempty"`

	// Faults is a fault-plan string (sim, batch; see
	// internal/fault). A malformed plan is rejected with the parser's
	// structured location in the error body.
	Faults string `json:"faults,omitempty"`

	// DeadlineMS bounds the job's wall clock (0: none), RetriesN the
	// stall retries, Stall the quiet-streak stall threshold (0: no
	// stall detection), ProgressEvery the progress-record period in
	// interactions (0: final only).
	DeadlineMS    int64 `json:"deadlineMs,omitempty"`
	Retries       int   `json:"retries,omitempty"`
	Stall         int   `json:"stall,omitempty"`
	ProgressEvery int   `json:"progressEvery,omitempty"`

	// ModelCheckP bounds table1's exhaustive checks (default 3).
	ModelCheckP int `json:"modelCheckP,omitempty"`

	// Shard restricts a batch job to the contiguous global trial range
	// [lo, hi) of the logical batch described by the rest of the spec.
	// This is the wire half of the dist shard protocol: a coordinator
	// POSTs the original spec plus shard to a peer, and because trial
	// seeds derive from the global index, the shard's records are
	// byte-identical to the same trials of a 1-node run. Shard jobs
	// always execute locally (a peer never re-distributes a shard).
	Shard *ShardRange `json:"shard,omitempty"`

	// Trace opts the job into span tracing: the result stream gains v1
	// "span" records covering admission-to-terminal, queue wait, and —
	// for sim/batch jobs — every trial, attempt and
	// supervision slice, with fault injections as span events. The
	// trace ID derives from the resolved seed, so a same-seed
	// resubmission reproduces the span tree byte-for-byte modulo
	// durNs/queueWaitNs. Untraced jobs emit exactly the pre-trace
	// stream (the determinism contract is unchanged).
	Trace bool `json:"trace,omitempty"`
}

// ShardRange is a contiguous global trial range [Lo, Hi) of a batch
// job (see Spec.Shard).
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Error is the structured rejection body, rendered as
// {"error": {...}}. For fault-plan rejections Kind/Offset/Token carry
// fault.ParseError's location verbatim; for queue rejections
// RetryAfterSec mirrors the Retry-After header.
type Error struct {
	Status        int    `json:"-"`
	Message       string `json:"message"`
	Kind          string `json:"kind,omitempty"`
	Offset        int    `json:"offset,omitempty"`
	Token         string `json:"token,omitempty"`
	RetryAfterSec int    `json:"retryAfterSec,omitempty"`
	// Feature names the identity-dependent feature a count-engine job
	// asked for (kind "count-incompatible" rejections), so clients can
	// fix the one offending field instead of parsing prose.
	Feature string `json:"feature,omitempty"`
}

func (e *Error) Error() string { return e.Message }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Kind: "validation", Message: fmt.Sprintf(format, args...)}
}

// countBadRequest is the structured rejection for a count-engine job
// that asked for identity-dependent machinery: a 400 whose Feature
// field names the incompatible feature.
func countBadRequest(feature, format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Kind: "count-incompatible",
		Feature: feature, Message: fmt.Sprintf(format, args...)}
}

// Prepared is a job spec that passed admission: defaults filled, seed
// resolved, protocol instantiated, fault plan parsed and
// capability-checked. It holds everything a worker needs to run the
// job without a fallible step. In-process embedders get one from
// Prepare: the campaign pipeline (internal/grid) admits each grid cell
// into one and runs it through the service's header and batch recipe,
// so a local cell run is record-for-record identical to the same cell
// submitted to a ppserved node.
type Prepared struct {
	spec        Spec
	seedDerived bool
	proto       core.Protocol // nil for table1
	plan        *fault.Plan
}

// prepare validates a submitted Spec against the protocol registry and
// the fault parser, filling defaults and resolving the seed. All
// rejection happens here, before the job is admitted to the queue.
func prepare(spec Spec) (*Prepared, *Error) {
	v := &Prepared{spec: spec}
	sp := &v.spec
	switch sp.Kind {
	case KindSim, KindBatch, KindTable1:
	case "":
		return nil, badRequest("missing job kind (sim | batch | table1)")
	case "campaign":
		return nil, badRequest(`job kind "campaign" is gone: submit kind "batch" with "init": "arbitrary" and a conv fault plan, e.g. "faults": "@conv:corrupt=2,@conv:corrupt=2,@conv:corrupt=2"`)
	default:
		return nil, badRequest("unknown job kind %q (sim | batch | table1)", sp.Kind)
	}
	switch sp.Engine {
	case "", "agent", "count":
	default:
		return nil, badRequest("unknown engine %q (agent | count)", sp.Engine)
	}
	// The count engine knows no agent identities: everything it cannot
	// run is rejected here, at admission, with the offending feature
	// named in the error body.
	if sp.Engine == "count" {
		if sp.Kind == KindTable1 {
			return nil, countBadRequest("kind:"+sp.Kind,
				"%s jobs need the agent engine (Table 1 cells drive identity-dependent machinery); the count engine supports kinds sim | batch", sp.Kind)
		}
		if feature, reason := sim.CountUnsupported(sp.Faults != "", supervisionFor(v, nil), sp.Sched, sp.Init); feature != "" {
			return nil, countBadRequest(feature, "count-engine jobs cannot take %s: %s", feature, reason)
		}
	}
	sp.Seed, v.seedDerived = obs.ResolveSeed(sp.Seed)
	if sp.Budget == 0 {
		sp.Budget = defaultBudget(sp.Kind)
	}
	if sp.Budget < 1 || sp.Budget > maxBudget {
		return nil, badRequest("budget %d outside [1,2^40]", sp.Budget)
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	if sp.Workers < 1 || sp.Workers > maxJobWorkers {
		return nil, badRequest("workers %d outside [1,%d]", sp.Workers, maxJobWorkers)
	}
	if sp.Retries < 0 || sp.Retries > maxRetries {
		return nil, badRequest("retries %d outside [0,%d]", sp.Retries, maxRetries)
	}
	if sp.Stall < 0 {
		return nil, badRequest("stall %d is negative", sp.Stall)
	}
	if sp.ProgressEvery < 0 {
		return nil, badRequest("progressEvery %d is negative", sp.ProgressEvery)
	}
	if sp.DeadlineMS < 0 || sp.DeadlineMS > maxDeadlineMS {
		return nil, badRequest("deadlineMs %d outside [0,%d]", sp.DeadlineMS, maxDeadlineMS)
	}

	if sp.Kind == KindTable1 {
		// Table 1 runs a fixed protocol roster; the per-protocol knobs
		// make no sense and are rejected rather than silently ignored.
		// The first one set, in declaration order, is named.
		for _, f := range []struct{ name, val string }{
			{"protocol", sp.Protocol}, {"sched", sp.Sched}, {"init", sp.Init}, {"faults", sp.Faults},
		} {
			if f.val != "" {
				return nil, badRequest("table1 jobs take no %q field", f.name)
			}
		}
		if sp.Trials != 0 || sp.N != 0 {
			return nil, badRequest("table1 jobs take no trials/n fields")
		}
		if sp.P == 0 {
			sp.P = 6
		}
		if sp.P < 2 || sp.P > 16 {
			return nil, badRequest("table1 bound p %d outside [2,16]", sp.P)
		}
		if sp.ModelCheckP == 0 {
			sp.ModelCheckP = 3
		}
		if sp.ModelCheckP < 2 || sp.ModelCheckP > 4 {
			return nil, badRequest("table1 modelCheckP %d outside [2,4] (state spaces grow exponentially)", sp.ModelCheckP)
		}
		return v, nil
	}
	if sp.ModelCheckP != 0 {
		return nil, badRequest("modelCheckP applies to table1 jobs only")
	}

	// Protocol-backed kinds: sim, batch.
	if sp.Protocol == "" {
		return nil, badRequest("missing protocol (known: %v)", experiments.RegistryKeys())
	}
	pspec, err := experiments.Lookup(sp.Protocol)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if sp.P == 0 {
		sp.P = 8
	}
	if sp.P < 2 || sp.P > maxP {
		return nil, badRequest("population bound p %d outside [2,%d]", sp.P, maxP)
	}
	v.proto = pspec.New(sp.P)
	if sp.N == 0 {
		sp.N = sp.P
	}
	if sp.N < 1 {
		return nil, badRequest("population size n %d outside [1,p=%d]", sp.N, sp.P)
	}
	// The agent engine needs one slot per agent, bounding N by P. Count
	// dynamics are defined for any N (naming is then unachievable when
	// N > P — the large-N scaling regime); the count runner probe in
	// validateRun enforces the pair-weight overflow bound instead.
	if sp.N > sp.P && sp.Engine != "count" {
		return nil, badRequest("population size n %d outside [1,p=%d]", sp.N, sp.P)
	}

	plan, perr := fault.Parse(sp.Faults)
	if perr != nil {
		var pe *fault.ParseError
		if errors.As(perr, &pe) {
			return nil, &Error{
				Status:  http.StatusBadRequest,
				Kind:    pe.Kind,
				Offset:  pe.Offset,
				Token:   pe.Token,
				Message: "faults: " + perr.Error(),
			}
		}
		return nil, badRequest("faults: %v", perr)
	}
	v.plan = plan
	if !plan.Empty() {
		// Capability check (e.g. a leader event against a leaderless
		// protocol) with a throwaway injector, so workers cannot fail.
		if _, err := fault.NewInjector(plan, v.proto, sp.Seed); err != nil {
			return nil, badRequest("faults: %v", err)
		}
	}

	switch sp.Kind {
	case KindSim:
		if sp.Trials > 1 {
			return nil, badRequest("sim jobs run exactly one trial (got trials=%d); use kind \"batch\"", sp.Trials)
		}
		sp.Trials = 1
		if err := validateRun(v); err != nil {
			return nil, err
		}
	case KindBatch:
		if sp.Trials == 0 {
			sp.Trials = 10
		}
		if sp.Trials < 1 || sp.Trials > maxTrials {
			return nil, badRequest("trials %d outside [1,%d]", sp.Trials, maxTrials)
		}
		if err := validateRun(v); err != nil {
			return nil, err
		}
	}
	if sp.Shard != nil {
		if sp.Kind != KindBatch {
			return nil, badRequest("shard applies to batch jobs only (got kind %q)", sp.Kind)
		}
		if sp.Shard.Lo < 0 || sp.Shard.Lo >= sp.Shard.Hi || sp.Shard.Hi > sp.Trials {
			return nil, badRequest("shard [%d,%d) outside [0,trials=%d)", sp.Shard.Lo, sp.Shard.Hi, sp.Trials)
		}
	}
	return v, nil
}

// validateRun checks the sim/batch sched/init keys — the init key by
// capability, the scheduler by sim.CheckAgentScheduler, the check
// sim.AgentScheduler runs — so the worker's per-attempt setup cannot
// fail. For count-engine jobs (whose sched and init prepare already
// held to sim.CountUnsupported) the probe is a throwaway CountRunner,
// which also enforces the compiled-table state cap and the pair-weight
// overflow bound on N.
func validateRun(v *Prepared) *Error {
	sp := &v.spec
	if sp.Sched == "" {
		sp.Sched = "random"
	}
	if sp.Init == "" {
		sp.Init = "zero"
	}
	if sp.Engine == "count" {
		cc, err := sim.CountStart(v.proto, sp.N, sp.Init)
		if err != nil {
			return badRequest("%v", err)
		}
		if _, err := sim.NewCountRunner(v.proto, cc, sp.Seed); err != nil {
			return badRequest("%v", err)
		}
		return nil
	}
	if err := checkInit(v.proto, sp.Init); err != nil {
		return badRequest("%v", err)
	}
	if err := sim.CheckAgentScheduler(v.proto, sp.N, sp.Sched); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// defaultBudget is the per-kind default interaction budget.
func defaultBudget(kind string) int {
	if kind == KindTable1 {
		return 20_000_000
	}
	return 50_000_000
}

// Prepare validates spec exactly as POST /v1/jobs admission does and
// returns the prepared job. The error, when non-nil, is the *Error the
// service would have answered with.
func Prepare(spec Spec) (*Prepared, error) {
	p, e := prepare(spec)
	if e != nil {
		return nil, e
	}
	return p, nil
}

// Spec returns the normalized spec: defaults filled and seed resolved,
// the canonical form the service hashes for its result cache. Posting
// it to a ppserved node re-validates to the identical spec.
func (p *Prepared) Spec() Spec { return p.spec }

// Run executes a prepared batch in-process, every trial journaled
// into sink (tracing disabled), through the range runner the service
// workers use, and returns the batch summary.
func (p *Prepared) Run(ctx context.Context, sink obs.Sink) sim.BatchSummary {
	return p.runRange(ctx, 0, p.spec.Trials, sink, obs.SpanContext{})
}

// JobSummary condenses a finished job's outcome for the job view (the
// full per-trial detail is in the result stream).
type JobSummary struct {
	// Status/Reason/Converged/ValidNaming/Steps/NonNull describe a sim
	// job's single supervised trial.
	Status      string `json:"status,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Converged   bool   `json:"converged,omitempty"`
	ValidNaming bool   `json:"validNaming,omitempty"`
	Steps       int64  `json:"steps,omitempty"`
	NonNull     int64  `json:"nonNull,omitempty"`
	// Trials/TrialsConverged/Aborted/Retried aggregate batch jobs;
	// Cells counts table1 cells completed.
	Trials          int  `json:"trials,omitempty"`
	TrialsConverged int  `json:"trialsConverged,omitempty"`
	Aborted         int  `json:"aborted,omitempty"`
	Retried         int  `json:"retried,omitempty"`
	Cells           int  `json:"cells,omitempty"`
	OK              bool `json:"ok"`
}

// Job is one admitted submission: its validated spec, result buffer,
// cancellation scope and lifecycle state. State transitions happen
// under mu; the buffer has its own lock (lock order: never take a
// job's mu while holding the server's).
type Job struct {
	ID string

	v      *Prepared
	buf    *buffer
	ctx    context.Context
	cancel context.CancelFunc

	// Trace plumbing, set once at admission and immutable afterwards:
	// rootSpan covers admission to terminal, queueSpan admission to
	// execution start. Span methods are called only by the owning
	// worker (or, for a job canceled while queued, by the single
	// goroutine that wins finalization). All nil/disabled when the spec
	// did not opt in.
	traceID   obs.TraceID
	rootSpan  *obs.Span
	queueSpan *obs.Span
	admitted  time.Time

	// key is the job's content address (canonical-spec hash), set once
	// at admission; it doubles as the Idempotency-Key header value.
	key string

	mu          sync.Mutex
	state       JobState
	errMsg      string
	started     time.Time
	wallNS      int64
	queueWaitNS int64
	summary     *JobSummary
	live        *obs.Observer
	finalized   bool
}

// traceCtx returns the root span's context — the parent for every
// child span the job's workload emits — or a disabled context for
// untraced jobs.
func (j *Job) traceCtx() obs.SpanContext { return j.rootSpan.Context() }

// JobView is the GET /v1/jobs/{id} representation.
type JobView struct {
	ID          string   `json:"id"`
	Kind        string   `json:"kind"`
	State       JobState `json:"state"`
	Protocol    string   `json:"protocol,omitempty"`
	P           int      `json:"p,omitempty"`
	N           int      `json:"n,omitempty"`
	Sched       string   `json:"sched,omitempty"`
	Init        string   `json:"init,omitempty"`
	Engine      string   `json:"engine,omitempty"`
	Faults      string   `json:"faults,omitempty"`
	Budget      int      `json:"budget,omitempty"`
	Trials      int      `json:"trials,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Seed        int64    `json:"seed"`
	SeedDerived bool     `json:"seedDerived,omitempty"`
	// Shard echoes a shard job's trial range.
	Shard *ShardRange `json:"shard,omitempty"`
	// Trace is the job's trace ID when span tracing was requested.
	Trace string `json:"trace,omitempty"`
	// IdempotencyKey is the canonical-spec hash, the result-cache key.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
	// Records is the number of NDJSON result records buffered so far.
	Records int `json:"records"`
	// Error carries the failure (or cancellation) detail.
	Error string `json:"error,omitempty"`
	// WallNS is the job's wall-clock time once terminal.
	WallNS  int64       `json:"wallNs,omitempty"`
	Summary *JobSummary `json:"summary,omitempty"`
	// Live is a point-in-time scrape of a running sim job's observer.
	Live *obs.ObserverSnapshot `json:"live,omitempty"`
}

// view snapshots the job for JSON rendering.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	sp := j.v.spec
	view := JobView{
		ID: j.ID, Kind: sp.Kind, State: j.state,
		Protocol: sp.Protocol, P: sp.P, N: sp.N, Sched: sp.Sched, Init: sp.Init,
		Engine: sp.Engine,
		Faults: sp.Faults, Budget: sp.Budget, Trials: sp.Trials, Workers: sp.Workers,
		Seed: sp.Seed, SeedDerived: j.v.seedDerived, Shard: sp.Shard, IdempotencyKey: j.key,
		Records: j.buf.len(), Error: j.errMsg, WallNS: j.wallNS, Summary: j.summary,
	}
	if j.traceID != 0 {
		view.Trace = j.traceID.String()
	}
	if j.state == StateRunning && j.live != nil {
		snap := j.live.Snapshot()
		view.Live = &snap
	}
	return view
}

// setLive registers the running trial's observer for live /metrics and
// job-view scrapes (sim jobs; cleared implicitly when the job ends).
func (j *Job) setLive(o *obs.Observer) {
	j.mu.Lock()
	j.live = o
	j.mu.Unlock()
}

// setSummary records the outcome summary.
func (j *Job) setSummary(s *JobSummary) {
	j.mu.Lock()
	j.summary = s
	j.mu.Unlock()
}

// fail moves a running job to failed with the given detail.
func (j *Job) fail(msg string) {
	j.mu.Lock()
	if !j.state.terminal() {
		j.state = StateFailed
		j.errMsg = msg
	}
	j.mu.Unlock()
}

// begin moves a queued job to running. It returns false when the job is
// no longer runnable (canceled while queued, or its context is already
// dead), leaving the state terminal. The transition happens under j.mu,
// as does finalize's terminal write, so a cancel racing worker pickup
// serializes: whichever takes the lock first wins. The store gets no
// record here: recovery re-queues queued and running jobs alike, so
// admission and the terminal record are all it reads.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.ctx.Err() != nil {
		j.state = StateCanceled
		j.errMsg = "canceled while queued"
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	if !j.admitted.IsZero() {
		j.queueWaitNS = j.started.Sub(j.admitted).Nanoseconds()
	}
	return true
}

// queueWait reads the job's queue-wait duration (0 until it starts).
func (j *Job) queueWait() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queueWaitNS
}

// JobRec is the service-journal record for a job lifecycle transition;
// the terminal transition is also the last record of the job's result
// stream. WallNS and QueueWaitNS are wall-clock fields (excluded from
// the determinism contract, like elapsedNs/wallNs everywhere else in
// the journal). Cached is set only on the service-journal record of a
// cache hit: the source job's terminal record, without wall-clock
// fields, journaled once per hit.
type JobRec struct {
	V           int    `json:"v"`
	Type        string `json:"type"` // "job"
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Protocol    string `json:"protocol,omitempty"`
	Seed        int64  `json:"seed"`
	Trace       string `json:"trace,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Error       string `json:"error,omitempty"`
	WallNS      int64  `json:"wallNs,omitempty"`
	QueueWaitNS int64  `json:"queueWaitNs,omitempty"`
}

// recLocked builds the job's lifecycle record; callers hold j.mu.
func (j *Job) recLocked() JobRec {
	rec := JobRec{
		V: obs.Version, Type: "job", ID: j.ID,
		Kind: j.v.spec.Kind, State: string(j.state),
		Protocol: j.v.spec.Protocol, Seed: j.v.spec.Seed,
		Error: j.errMsg, WallNS: j.wallNS, QueueWaitNS: j.queueWaitNS,
	}
	if j.traceID != 0 {
		rec.Trace = j.traceID.String()
	}
	return rec
}

// rec builds the job's lifecycle record.
func (j *Job) rec() JobRec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recLocked()
}

// Table1Rec is the result record of a table1 job. Cell.WallNS fields
// are wall-clock.
type Table1Rec struct {
	V     int                `json:"v"`
	Type  string             `json:"type"` // "table1"
	Cells []experiments.Cell `json:"cells"`
}
