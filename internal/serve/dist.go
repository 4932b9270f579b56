package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"time"

	"popnaming/internal/dist"
	"popnaming/internal/obs"
	"popnaming/internal/serve/store"
)

// This file is the serving half of distributed batch execution: it
// decides which jobs shard (distEligible), drives the internal/dist
// coordinator for them (runDistBatch), supplies the coordinator's
// local executor (a range run into a line sink), keeps every completed
// lease as a done shard job (keepShard) and hands kept shards back to
// the coordinator from the result cache (restoredShards).

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

// shardSpec returns the spec of one lease's shard job and its JSON:
// the job's validated spec with the shard range set and tracing
// stripped. The seed is the resolved one, so the peer derives exactly
// the trial seeds this node would. The JSON is the body a peer is sent
// and, since admission leaves a validated spec as it is, the canonical
// spec whose hash is the shard job's cache key on any node.
func (j *Job) shardSpec(r dist.Range) (Spec, []byte) {
	sp := j.v.spec // copy
	sp.Shard = &ShardRange{Lo: r.Lo, Hi: r.Hi}
	sp.Trace = false
	canonical, _ := json.Marshal(sp) // a Spec always marshals
	return sp, canonical
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
	_, body := jp.j.shardSpec(r)
	return jp.p.RunBody(ctx, r, body, nil)
}

// runShardLocal executes one lease in-process: the same range runner
// the peer side uses, into a line sink instead of the job buffer. A
// canceled run is an error — its summary covers fewer trials than the
// lease and must never be accepted as a completed shard.
func (s *Server) runShardLocal(j *Job, ctx context.Context, r dist.Range) ([][]byte, error) {
	var out lineSink
	j.v.runRange(ctx, r.Lo, r.Hi, &out, obs.SpanContext{})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// lineSink collects records as NDJSON lines, each encoded as a
// JournalSink encodes it (obs.MarshalRecord). sim.RunBatch emits one
// record at a time, so it needs no lock.
type lineSink [][]byte

func (ls *lineSink) Emit(rec any) error {
	line, err := obs.MarshalRecord(rec)
	if err != nil {
		return err
	}
	*ls = append(*ls, line)
	return nil
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
// lease record into the service journal, and each completed lease
// kept as a shard job. A store write failure downgrades to the
// metrics counter: the job still completes from RAM, and the lease is
// just not kept.
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
	if ev.State == dist.StateCompleted {
		if err := s.keepShard(j, ev); err != nil {
			s.met.storeWriteErrors.Inc()
		}
	}
}

// keepShard stores a completed lease as the done shard job a peer runs
// for it, unless the shard's key already has a source: admitted under
// the shard spec's canonical bytes (the key a peer computes), with the
// result log that peer's job writes (its header, seedDerived false as
// the shard's seed is explicit, then the shard's lines ending in their
// batch_summary, then a done job record), finalized, and entered into
// the finished-job index and the result cache as boot enters a
// restored done job. So the lease comes back from the result cache
// (restoredShards), and a POST of the shard spec is a hit. The ID and
// admission are taken under s.mu as submit takes them; Finalize and
// its fsyncs run outside it. A crash before Finalize leaves an
// admitted shard job, which the next boot re-queues.
func (s *Server) keepShard(j *Job, ev dist.Event) error {
	spec, canonical := j.shardSpec(ev.Range)
	sum := sha256.Sum256(canonical)
	s.mu.Lock()
	if _, ok := s.sources[sum]; ok {
		s.mu.Unlock()
		return nil
	}
	s.nextID++
	n := s.nextID
	id := jobID(n)
	err := s.store.Admit(id, canonical, false)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// A JobSummary, a header and a job record hold no floats, so they
	// always marshal.
	summary, _ := json.Marshal(batchSummary(ev.Sum))
	hdr := j.v.Header("ppserved")
	hdr.SeedDerived = false
	var lines lineSink
	_ = lines.Emit(hdr)
	lines = append(lines, ev.Shard...)
	_ = lines.Emit(jobRec(id, &spec, StateDone))
	if err := s.store.AppendResults(id, lines); err != nil {
		return err
	}
	if err := s.store.Finalize(id, store.Final{State: store.StateDone, Summary: summary, ResultLines: len(lines)}); err != nil {
		return err
	}
	s.mu.Lock()
	s.finished.set(n, newFinishedJob(len(lines), StateDone, spec.Kind))
	s.rememberLocked(sum, n)
	s.mu.Unlock()
	s.met.moveJob("", StateDone)
	return nil
}

// restoredShards looks every planned lease up in the result cache. A
// lease whose shard spec has a source (a shard this node kept, before
// a restart or for an earlier run of the same batch, or ran for a
// peer) is handed to the coordinator as the source's stream without
// its header and terminal record, and delivers without executing.
func (s *Server) restoredShards(j *Job, plan []dist.Range) map[int][][]byte {
	restored := make(map[int][][]byte)
	for i, r := range plan {
		_, canonical := j.shardSpec(r)
		if _, lines := s.cachedRun(sha256.Sum256(canonical)); len(lines) > 2 {
			restored[i] = lines[1 : len(lines)-1]
		}
	}
	return restored
}

// batchSummary condenses a batch_summary record into a job summary.
func batchSummary(sum obs.BatchSummaryRec) *JobSummary {
	return &JobSummary{
		Trials:          sum.Trials,
		TrialsConverged: sum.Converged,
		Aborted:         sum.Aborted,
		Retried:         sum.Retried,
		Steps:           sum.TotalSteps,
		NonNull:         sum.TotalNonNull,
		OK:              sum.Converged == sum.Trials,
	}
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
	j.setSummary(batchSummary(merged))
	s.met.addTrials(merged.Trials, merged.Converged, merged.TotalSteps, merged.TotalNonNull)
	return nil
}
