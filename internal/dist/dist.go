// Package dist is the coordinator half of ppserved's horizontal
// scale-out: it splits a batch job's trial range into contiguous
// leases, executes each lease on local workers or on peer ppserved
// nodes over the v1 shard protocol (POST /v1/jobs with shard:{lo,hi}),
// and merges the returned journal shards deterministically in trial
// order, so the assembled NDJSON stream is byte-identical to a 1-node
// run modulo wall-clock fields.
//
// Trial seeds derive independently (sim.DeriveSeed(jobSeed, trial,
// attempt)), so any node can run any trial range and produce exactly
// the records a single node would — distribution only has to get the
// bookkeeping right:
//
//   - every lease completes exactly once (at-most-once acceptance: the
//     first completion per lease wins, a late duplicate from a slow
//     peer is discarded by epoch, never double-merged);
//   - a lease whose peer times out, 5xx/429s, or drops the connection
//     is re-issued with capped exponential backoff and deterministic
//     jitter from the job seed, at most Retries times to peers before
//     it is pinned to the local executor (a coordinator with zero live
//     peers still completes every job);
//   - lease transitions are journaled via the Journal callback, and a
//     completed one carries its shard, which the serving layer keeps
//     (ppserved stores it as a done shard job in its result cache): a
//     restarted coordinator hands kept shards back via Restored and
//     only the other leases execute.
//
// The package is serve-agnostic: executors are callbacks and the peer
// client (see Peer) speaks plain HTTP against the public job API.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"popnaming/internal/obs"
)

// Range is a contiguous global trial range [Lo, Hi).
type Range struct {
	Lo, Hi int
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Plan splits [0, trials) into contiguous leases of at most
// leaseTrials trials each (the final lease takes the remainder).
// leaseTrials <= 0 yields a single lease covering the whole batch.
func Plan(trials, leaseTrials int) []Range {
	if trials <= 0 {
		return nil
	}
	if leaseTrials <= 0 || leaseTrials > trials {
		leaseTrials = trials
	}
	var plan []Range
	for lo := 0; lo < trials; lo += leaseTrials {
		hi := lo + leaseTrials
		if hi > trials {
			hi = trials
		}
		plan = append(plan, Range{Lo: lo, Hi: hi})
	}
	return plan
}

// Lease states as journaled. Issued/reissued mark an attempt starting
// (reissued when the epoch is past zero), failed marks an attempt
// ending in error, completed marks the accepted result, duplicate
// marks a late second result discarded by epoch, and restored marks a
// lease delivered from Restored without executing.
const (
	StateIssued    = "issued"
	StateReissued  = "reissued"
	StateFailed    = "failed"
	StateCompleted = "completed"
	StateDuplicate = "duplicate"
	StateRestored  = "restored"
)

// Event is one lease transition, handed to Coordinator.Journal. On
// completed events Shard carries the normalized shard — the
// trial-ordered workload lines plus the shard's own batch_summary line
// — for persistence, and Sum that summary decoded.
type Event struct {
	Lease  int
	Range  Range
	Epoch  int
	State  string
	Peer   string
	Reason string
	Shard  [][]byte
	Sum    obs.BatchSummaryRec
}

// Executor runs one lease and returns the NDJSON lines of its journal
// shard: the workload records and the shard's batch_summary, without
// the result-stream envelope (Peer.RunBody strips it). An Executor is
// used from one goroutine at a time.
type Executor interface {
	// Name labels the executor in lease records ("local" or the peer
	// base URL).
	Name() string
	// Run executes the lease within ctx and returns the shard lines.
	Run(ctx context.Context, r Range) ([][]byte, error)
	// Ready reports whether the executor can take work right now;
	// quarantined peers answer false until a /readyz probe passes.
	Ready(ctx context.Context) bool
	// Observe records the attempt outcome for health accounting.
	Observe(ok bool)
}

// Coordinator drives one distributed batch job: it owns the lease
// state machine and fans leases out to Local and Peers.
type Coordinator struct {
	// Job is the coordinator-side job ID, used only for labels.
	Job string
	// Seed feeds the deterministic backoff jitter (the job seed).
	Seed int64
	// Local executes a lease in-process, returning shard lines as an
	// Executor does; it is the fallback of last resort and must only
	// fail on context cancellation. Nil means no local degradation: a
	// lease that exhausts Retries fails the run.
	Local func(ctx context.Context, r Range) ([][]byte, error)
	// Peers are the remote executors; the slice may be empty.
	Peers []Executor
	// Timeout, when non-nil, bounds one peer attempt on the given
	// range (derived by the caller from exec-time histograms). Local
	// execution is bounded by the job's own supervision instead.
	Timeout func(r Range) time.Duration
	// Retries caps peer re-issues per lease before it is pinned to
	// the local executor. Negative means 0.
	Retries int
	// Backoff is the base re-issue delay, doubling per epoch up to
	// MaxBackoff, plus up to 50% deterministic jitter. Defaults:
	// 100ms base, 5s cap.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Journal, when non-nil, receives every lease transition (called
	// under the coordinator lock: keep it fast, never re-entrant).
	Journal func(ev Event)
	// Deliver receives completed shards strictly in lease order: the
	// normalized shard minus its batch_summary line, plus the parsed
	// summary for aggregation. Called under the coordinator lock.
	Deliver func(lease int, r Range, lines [][]byte, sum obs.BatchSummaryRec)
	// Restored maps lease index to a shard already at hand, in the form
	// Journal receives in Event.Shard (ppserved looks each lease up in
	// its result cache); those leases deliver without executing.
	Restored map[int][][]byte

	mu     sync.Mutex
	leases []*lease
	next   int // delivery cursor: all leases < next are delivered
	left   int // undelivered lease count
	done   chan struct{}
	closed bool
	runErr error
}

// closeDoneLocked stops the run exactly once; callers hold c.mu.
func (c *Coordinator) closeDoneLocked() {
	if !c.closed {
		c.closed = true
		close(c.done)
	}
}

type lease struct {
	idx      int
	rng      Range
	epoch    int
	reissues int
	done     bool
	shard    [][]byte // normalized shard, nil after delivery
	sum      obs.BatchSummaryRec
}

// Run executes the lease plan and returns once every lease is
// delivered, or with the first fatal error (context canceled, or a
// lease exhausted with no local executor). It must be called once.
func (c *Coordinator) Run(ctx context.Context, plan []Range) error {
	if len(plan) == 0 {
		return nil
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	c.done = make(chan struct{})
	c.leases = make([]*lease, len(plan))
	for i, r := range plan {
		c.leases[i] = &lease{idx: i, rng: r}
	}
	c.left = len(plan)

	// Hand back shards a previous incarnation completed; only the
	// rest executes. A restored shard that fails to parse is treated
	// as incomplete and re-issued.
	var pending []int
	c.mu.Lock()
	for _, l := range c.leases {
		if raw, ok := c.Restored[l.idx]; ok {
			if shard, sum, err := normalizeShard(raw, l.rng); err == nil {
				l.shard, l.sum, l.done = shard, sum, true
				c.eventEpoch(l, l.epoch, StateRestored, "store", "")
				continue
			}
		}
		pending = append(pending, l.idx)
	}
	c.advanceLocked()
	stop := c.left == 0
	c.mu.Unlock()
	if stop {
		return nil
	}

	// peerQ holds leases any executor may take; localQ holds leases
	// pinned to the local executor after exhausting their peer
	// re-issue budget. Capacities cover every lease plus slack for
	// re-enqueues, so sends never block.
	peerQ := make(chan int, 2*len(plan))
	localQ := make(chan int, 2*len(plan))
	for _, idx := range pending {
		if len(c.Peers) > 0 {
			peerQ <- idx
		} else {
			localQ <- idx
		}
	}
	if len(c.Peers) == 0 && c.Local == nil {
		return fmt.Errorf("dist: no peers and no local executor")
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range c.Peers {
		wg.Add(1)
		go func(p Executor) {
			defer wg.Done()
			c.peerLoop(runCtx, p, peerQ, localQ)
		}(p)
	}
	if c.Local != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.localLoop(runCtx, peerQ, localQ)
		}()
	}

	select {
	case <-c.done:
	case <-runCtx.Done():
	}
	cancel()
	wg.Wait()
	c.mu.Lock()
	err := c.runErr
	left := c.left
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if left > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("dist: %d leases undelivered", left)
	}
	return nil
}

// peerLoop is one peer's work loop: probe back to readiness when
// quarantined, take a lease, run it with the per-attempt timeout, and
// hand failures to the re-issue path.
func (c *Coordinator) peerLoop(ctx context.Context, p Executor, peerQ, localQ chan int) {
	for {
		if !p.Ready(ctx) {
			select {
			case <-ctx.Done():
				return
			case <-c.done:
				return
			case <-time.After(c.Backoff):
			}
			continue
		}
		var idx int
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case idx = <-peerQ:
		}
		l, epoch, ok := c.issue(idx, p.Name())
		if !ok {
			continue
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if c.Timeout != nil {
			if d := c.Timeout(l.rng); d > 0 {
				attemptCtx, cancel = context.WithTimeout(ctx, d)
			}
		}
		raw, err := p.Run(attemptCtx, l.rng)
		if cancel != nil {
			cancel()
		}
		var shard [][]byte
		var sum obs.BatchSummaryRec
		if err == nil {
			shard, sum, err = normalizeShard(raw, l.rng)
		}
		if err != nil {
			p.Observe(false)
			if ctx.Err() != nil {
				return
			}
			c.reissue(ctx, l, epoch, p.Name(), err, peerQ, localQ)
			continue
		}
		p.Observe(true)
		c.accept(l, epoch, p.Name(), shard, sum)
	}
}

// localLoop executes leases on the coordinator's own workers. It
// prefers leases pinned local (peer budget exhausted) but competes
// with peers for the shared queue, which is both utilization and the
// degradation path: with zero live peers it drains everything.
func (c *Coordinator) localLoop(ctx context.Context, peerQ, localQ chan int) {
	for {
		var idx int
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case idx = <-localQ:
		default:
			select {
			case <-ctx.Done():
				return
			case <-c.done:
				return
			case idx = <-localQ:
			case idx = <-peerQ:
			}
		}
		l, epoch, ok := c.issue(idx, "local")
		if !ok {
			continue
		}
		raw, err := c.Local(ctx, l.rng)
		var shard [][]byte
		var sum obs.BatchSummaryRec
		if err == nil {
			shard, sum, err = normalizeShard(raw, l.rng)
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// The local executor only fails on cancellation or a bug;
			// either way re-running it cannot help.
			c.abort(l, epoch, err)
			return
		}
		c.accept(l, epoch, "local", shard, sum)
	}
}

// issue claims the lease for one attempt, bumping its epoch. A lease
// already completed (a queued re-issue that lost the race) is skipped.
func (c *Coordinator) issue(idx int, peer string) (*lease, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[idx]
	if l.done {
		return nil, 0, false
	}
	epoch := l.epoch
	l.epoch++
	st := StateIssued
	if epoch > 0 {
		st = StateReissued
	}
	c.eventEpoch(l, epoch, st, peer, "")
	return l, epoch, true
}

// accept applies at-most-once result acceptance: the first completion
// per lease wins and advances in-order delivery; later completions
// (an older epoch's slow peer finishing after a re-issue) are
// journaled as duplicates and discarded.
func (c *Coordinator) accept(l *lease, epoch int, peer string, shard [][]byte, sum obs.BatchSummaryRec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.done {
		c.eventEpoch(l, epoch, StateDuplicate, peer, "")
		return
	}
	l.done = true
	l.shard, l.sum = shard, sum
	if c.Journal != nil {
		c.Journal(Event{Lease: l.idx, Range: l.rng, Epoch: epoch, State: StateCompleted,
			Peer: peer, Shard: shard, Sum: sum})
	}
	c.advanceLocked()
	if c.left == 0 {
		c.closeDoneLocked()
	}
}

// reissue journals a failed attempt and re-enqueues the lease after a
// capped exponential backoff with deterministic jitter from the job
// seed. Past the peer re-issue budget the lease is pinned local; with
// no local executor that is fatal.
func (c *Coordinator) reissue(ctx context.Context, l *lease, epoch int, peer string, cause error, peerQ, localQ chan int) {
	c.mu.Lock()
	if l.done {
		c.mu.Unlock()
		return
	}
	l.reissues++
	exhausted := l.reissues > c.Retries
	c.eventEpoch(l, epoch, StateFailed, peer, cause.Error())
	c.mu.Unlock()
	if exhausted && c.Local == nil {
		c.mu.Lock()
		if c.runErr == nil {
			c.runErr = fmt.Errorf("dist: lease %d %s exhausted %d re-issues: %w", l.idx, l.rng, c.Retries, cause)
		}
		c.closeDoneLocked()
		c.mu.Unlock()
		return
	}
	target := peerQ
	if exhausted {
		target = localQ
	}
	delay := c.backoffDelay(l.idx, epoch)
	go func() {
		select {
		case <-ctx.Done():
		case <-c.done:
		case <-time.After(delay):
			target <- l.idx
		}
	}()
}

// abort records a fatal local-execution failure and stops the run.
func (c *Coordinator) abort(l *lease, epoch int, cause error) {
	c.mu.Lock()
	c.eventEpoch(l, epoch, StateFailed, "local", cause.Error())
	if c.runErr == nil {
		c.runErr = fmt.Errorf("dist: lease %d %s local execution: %w", l.idx, l.rng, cause)
	}
	c.closeDoneLocked()
	c.mu.Unlock()
}

// advanceLocked delivers every completed lease at the front of the
// order, keeping the merged stream in global trial order regardless of
// completion order. Callers hold c.mu.
func (c *Coordinator) advanceLocked() {
	for c.next < len(c.leases) && c.leases[c.next].done {
		l := c.leases[c.next]
		if c.Deliver != nil {
			c.Deliver(l.idx, l.rng, l.shard[:len(l.shard)-1], l.sum)
		}
		l.shard = nil
		c.next++
		c.left--
	}
}

func (c *Coordinator) eventEpoch(l *lease, epoch int, state, peer, reason string) {
	if c.Journal == nil {
		return
	}
	c.Journal(Event{Lease: l.idx, Range: l.rng, Epoch: epoch, State: state, Peer: peer, Reason: reason})
}

// backoffDelay is the re-issue delay for a lease attempt: Backoff
// doubled per epoch, capped at MaxBackoff, plus up to 50% jitter
// derived deterministically from (job seed, lease, epoch) via
// splitmix64 — no two coordinators with the same seed disagree, and no
// global rand state is touched.
func (c *Coordinator) backoffDelay(idx, epoch int) time.Duration {
	d := c.Backoff
	for i := 0; i < epoch && d < c.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	jitter := obs.Mix64(uint64(c.Seed) ^ uint64(idx)<<32 ^ uint64(epoch)<<16)
	return d + time.Duration(jitter%uint64(d/2+1))
}

// ---- shard checking and merging ----

// lineMeta is the per-line peek the merge needs: the record type and
// its trial tag. Trial is a pointer so an absent tag (a trial-0 fault
// record, whose field is omitempty) folds to trial 0.
type lineMeta struct {
	Type  string `json:"type"`
	Trial *int   `json:"trial"`
}

// normalizeShard checks that one shard's lines (a result-stream body,
// envelope already stripped) are in normal form — the one form in which
// a shard is persisted, restored and (minus the summary line)
// delivered: workload lines whose trial tags are nondecreasing and
// inside the lease range (an absent tag counts as trial 0), then
// exactly one batch_summary, on the last line, covering the lease.
// sim.RunBatch journals a range in that form at any worker count, so
// peer shards, local runs and restored shards all pass; a shard that
// does not is refused (and its lease re-issued), never re-sorted. It
// returns the lines as received and the decoded summary.
func normalizeShard(raw [][]byte, r Range) ([][]byte, obs.BatchSummaryRec, error) {
	var sum obs.BatchSummaryRec
	prev := r.Lo
	for i, line := range raw {
		var m lineMeta
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, sum, fmt.Errorf("dist: bad shard line: %w", err)
		}
		if m.Type == "batch_summary" {
			if i != len(raw)-1 {
				return nil, sum, fmt.Errorf("dist: shard %s carries a batch_summary record before its last line", r)
			}
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, sum, fmt.Errorf("dist: bad shard summary: %w", err)
			}
			if sum.Trials != r.Hi-r.Lo {
				return nil, sum, fmt.Errorf("dist: shard %s summary covers %d trials, want %d", r, sum.Trials, r.Hi-r.Lo)
			}
			return raw, sum, nil
		}
		t := 0
		if m.Trial != nil {
			t = *m.Trial
		}
		if t < r.Lo || t >= r.Hi {
			return nil, sum, fmt.Errorf("dist: shard %s carries trial %d", r, t)
		}
		if t < prev {
			return nil, sum, fmt.Errorf("dist: shard %s carries trial %d after trial %d", r, t, prev)
		}
		prev = t
	}
	return nil, sum, fmt.Errorf("dist: shard %s carries no batch_summary record", r)
}

// MergeSummaries rebuilds the logical batch summary from per-shard
// summaries: counters sum, the steps-to-convergence histograms merge
// by bucket, and Workers reports what the 1-node run would have used
// (min(workers, trials)) so the merged record matches it byte for
// byte. WallNS and Utilization are the caller's (both are wall-clock
// fields, excluded from the determinism contract).
func MergeSummaries(sums []obs.BatchSummaryRec, workers, trials int, wallNS int64, util float64) obs.BatchSummaryRec {
	if workers <= 0 || workers > trials {
		workers = trials
	}
	out := obs.BatchSummaryRec{V: obs.Version, Type: "batch_summary",
		Workers: workers, WallNS: wallNS, Utilization: util}
	byLo := make(map[int64]*obs.HistBucket)
	var order []int64
	for _, s := range sums {
		out.Trials += s.Trials
		out.Converged += s.Converged
		out.Aborted += s.Aborted
		out.Retried += s.Retried
		out.TotalSteps += s.TotalSteps
		out.TotalNonNull += s.TotalNonNull
		for _, b := range s.StepsHist {
			if have, ok := byLo[b.Lo]; ok {
				have.Count += b.Count
			} else {
				nb := b
				byLo[b.Lo] = &nb
				order = append(order, b.Lo)
			}
		}
	}
	if len(order) > 0 {
		slices.Sort(order)
		out.StepsHist = make([]obs.HistBucket, 0, len(order))
		for _, lo := range order {
			out.StepsHist = append(out.StepsHist, *byLo[lo])
		}
	}
	return out
}
