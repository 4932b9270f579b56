package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"popnaming/internal/dist"
	"popnaming/internal/obs"
	"popnaming/internal/serve/store"
)

// This file is the serving half of distributed batch execution: it
// decides which jobs shard (distEligible), drives the internal/dist
// coordinator for them (runDistBatch), supplies the coordinator's
// local executor (a range run into a private buffer) and its
// persistence hooks (lease records and shard logs into the job
// store), and rebuilds restored shards after a coordinator restart.

// distEligible reports whether a job runs through the dist
// coordinator. Only untraced batch jobs shard: traced jobs keep their
// single-node span tree (spans interleave with workload records in
// ways a merge cannot reproduce byte-identically), shard jobs
// (Spec.Shard set) are the peer side of the protocol and always
// execute locally, and sim/table1 jobs have no trial range to split.
func (s *Server) distEligible(j *Job) bool {
	sp := j.v.spec
	return len(s.peers) > 0 && sp.Kind == KindBatch && sp.Shard == nil && !sp.Trace
}

// shardSpec renders the submission body for one lease: the job's
// validated spec with the shard range set and tracing stripped. The
// seed is the resolved one, so the peer derives exactly the trial
// seeds this node would.
func (j *Job) shardSpec(r dist.Range) ([]byte, error) {
	sp := j.v.spec // copy
	sp.Shard = &ShardRange{Lo: r.Lo, Hi: r.Hi}
	sp.Trace = false
	return json.Marshal(sp)
}

// jobPeer adapts a server-lifetime dist.Peer (persistent health and
// quarantine state) to one job's executor: Run renders this job's
// shard body, everything else delegates.
type jobPeer struct {
	p *dist.Peer
	j *Job
}

func (jp *jobPeer) Name() string                   { return jp.p.Name() }
func (jp *jobPeer) Ready(ctx context.Context) bool { return jp.p.Ready(ctx) }
func (jp *jobPeer) Observe(ok bool)                { jp.p.Observe(ok) }
func (jp *jobPeer) Run(ctx context.Context, r dist.Range) ([][]byte, error) {
	body, err := jp.j.shardSpec(r)
	if err != nil {
		return nil, fmt.Errorf("dist: shard body: %w", err)
	}
	return jp.p.RunBody(ctx, r, body)
}

// runShardLocal executes one lease in-process: the same range runner
// the peer side uses, into a private unspilled buffer instead of the
// job buffer. A canceled run is an error — its summary covers fewer
// trials than the lease and must never be accepted as a completed
// shard.
func (s *Server) runShardLocal(j *Job, ctx context.Context, r dist.Range) ([][]byte, error) {
	buf := newBuffer(0, nil, nil, nil)
	j.v.runRange(ctx, r.Lo, r.Hi, buf, obs.SpanContext{})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return buf.all()
}

// leaseTimeout bounds one peer attempt. With enough execution history
// for this kind it adapts — about 4x the mean batch wall clock,
// clamped to [5s, LeaseTimeout] — so a wedged peer is detected in
// proportion to how long work actually takes; with a cold histogram
// it falls back to the configured ceiling.
func (s *Server) leaseTimeout(r dist.Range) time.Duration {
	max := s.cfg.LeaseTimeout
	km := s.met.kinds[KindBatch]
	if km == nil {
		return max
	}
	snap := km.execMS.Snapshot()
	if snap.Count < 3 {
		return max
	}
	d := time.Duration(4*snap.Mean) * time.Millisecond
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	if d > max {
		d = max
	}
	return d
}

// journalLease is the coordinator's Journal hook: counters, a v1
// lease record into the service journal, and persistence of completed
// leases, the only ones restoredShards reads. A completed shard writes
// its log before the lease record, so a crash between the two
// re-issues the lease rather than restoring a missing shard; a store
// write failure downgrades to the metrics counter — the job still
// completes from RAM, durability is just lost for this lease.
func (s *Server) journalLease(j *Job, ev dist.Event) {
	switch ev.State {
	case dist.StateIssued:
		s.met.leasesIssued.Inc()
	case dist.StateReissued:
		s.met.leasesIssued.Inc()
		s.met.leasesReissued.Inc()
	case dist.StateFailed:
		s.met.leaseFailures.Inc()
	case dist.StateCompleted:
		s.met.leasesCompleted.Inc()
	case dist.StateDuplicate:
		s.met.leasesDuplicate.Inc()
	case dist.StateRestored:
		s.met.leasesRestored.Inc()
	}
	_ = s.sink.Emit(obs.NewLeaseRec(j.ID, ev.Lease, ev.Range.Lo, ev.Range.Hi, ev.Epoch, ev.State, ev.Peer, ev.Reason))
	if ev.State != dist.StateCompleted {
		return
	}
	if err := s.store.PutShard(j.ID, ev.Lease, ev.Shard); err != nil {
		s.met.storeWriteErrors.Inc()
		return
	}
	if err := s.store.PutLease(j.ID, store.LeaseSnap{Idx: ev.Lease, Lo: ev.Range.Lo, Hi: ev.Range.Hi,
		Epoch: ev.Epoch, State: store.LeaseCompleted, Peer: ev.Peer, Lines: ev.Lines}); err != nil {
		s.met.storeWriteErrors.Inc()
	}
}

// restoredShards rebuilds the coordinator's Restored map from the
// lease snapshots a previous incarnation journaled. A snapshot only
// counts when its range matches the current plan (a changed
// -lease-trials re-plans the batch; stale ranges re-execute) and its
// shard log reads back whole.
func (s *Server) restoredShards(j *Job, plan []dist.Range) map[int][][]byte {
	if len(j.restoredLeases) == 0 {
		return nil
	}
	restored := make(map[int][][]byte)
	for _, l := range j.restoredLeases {
		if l.State != store.LeaseCompleted || l.Idx < 0 || l.Idx >= len(plan) {
			continue
		}
		if plan[l.Idx].Lo != l.Lo || plan[l.Idx].Hi != l.Hi {
			continue
		}
		lines, err := s.store.ReadShard(j.ID, l.Idx, l.Lines)
		if err != nil {
			continue
		}
		restored[l.Idx] = lines
	}
	return restored
}

// runDistBatch executes an untraced batch job through the dist
// coordinator: the trial range splits into leases, leases run on peer
// nodes and the local engine, and completed shards merge back into
// the job buffer strictly in trial order, so the assembled stream is
// byte-identical to a 1-node run modulo wall-clock fields.
func (s *Server) runDistBatch(j *Job) error {
	sp := j.v.spec
	start := time.Now()
	plan := dist.Plan(sp.Trials, s.cfg.LeaseTrials)

	var sums []obs.BatchSummaryRec
	peers := make([]dist.Executor, len(s.peers))
	for i, p := range s.peers {
		peers[i] = &jobPeer{p: p, j: j}
	}
	co := &dist.Coordinator{
		Job:  j.ID,
		Seed: sp.Seed,
		Local: func(ctx context.Context, r dist.Range) ([][]byte, error) {
			return s.runShardLocal(j, ctx, r)
		},
		Peers:   peers,
		Timeout: s.leaseTimeout,
		Retries: s.cfg.DistRetries,
		Journal: func(ev dist.Event) { s.journalLease(j, ev) },
		Deliver: func(lease int, r dist.Range, lines [][]byte, sum obs.BatchSummaryRec) {
			j.buf.appendRaw(lines)
			sums = append(sums, sum)
		},
		Restored: s.restoredShards(j, plan),
	}
	if err := co.Run(j.ctx, plan); err != nil {
		if j.ctx.Err() != nil {
			return nil // runJob records the cancellation
		}
		return err
	}

	merged := dist.MergeSummaries(sums, sp.Workers, sp.Trials, time.Since(start).Nanoseconds(), 0)
	if err := j.buf.Emit(merged); err != nil {
		return err
	}
	j.setSummary(&JobSummary{
		Trials:          merged.Trials,
		TrialsConverged: merged.Converged,
		Aborted:         merged.Aborted,
		Retried:         merged.Retried,
		Steps:           merged.TotalSteps,
		NonNull:         merged.TotalNonNull,
		OK:              merged.Converged == merged.Trials,
	})
	s.met.addTrials(merged.Trials, merged.Converged, merged.TotalSteps, merged.TotalNonNull)
	return nil
}
