package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// Version is the journal schema version stamped into every record.
const Version = 1

// Sink receives journal records. Emit is called with JSON-marshalable
// record values (Header, Progress, Summary, BatchSummaryRec,
// ExperimentRec, StageRec, SpanRec); implementations used from
// sim.RunBatch workers must be safe for concurrent use.
type Sink interface {
	Emit(rec any) error
}

// Discard is a Sink that drops every record.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(any) error { return nil }

// JournalSink writes one JSON object per line to an underlying writer.
// It is safe for concurrent use; the first marshal or write error is
// retained and returned by every subsequent Emit and by Err.
type JournalSink struct {
	mu  sync.Mutex
	enc *json.Encoder // writes each record and its newline in one Write
	err error
}

// NewJournalSink returns a JSONL sink over w.
func NewJournalSink(w io.Writer) *JournalSink {
	return &JournalSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink. A nil *JournalSink drops the record: callers
// routinely store an optional journal in a typed pointer and pass it
// through the Sink interface, where a nil-pointer sink is no longer ==
// nil — the receiver guard keeps that ubiquitous pattern from panicking
// in metrics-only runs.
func (s *JournalSink) Emit(rec any) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(rec); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Err returns the first error encountered by Emit, if any. Like Emit
// it tolerates a nil receiver.
func (s *JournalSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// OpenJournal creates path and returns a buffered JournalSink over it
// plus a close function that flushes, closes the file, and reports the
// first error from writing, flushing or closing.
func OpenJournal(path string) (*JournalSink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	sink := NewJournalSink(bw)
	closeFn := func() error {
		err := sink.Err()
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return sink, closeFn, nil
}

// Header is the first record of every journal: the full run
// configuration, sufficient to replay the run exactly. Absolute
// timestamps are deliberately absent so that journals of identical runs
// are byte-identical modulo the wall-clock fields of later records.
type Header struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	Tool string `json:"tool,omitempty"`

	Protocol string `json:"protocol,omitempty"`
	P        int    `json:"p,omitempty"`
	States   int    `json:"states,omitempty"`
	Leader   bool   `json:"leader,omitempty"`
	N        int    `json:"n,omitempty"`

	Scheduler string `json:"scheduler,omitempty"`
	Init      string `json:"init,omitempty"`
	Budget    int    `json:"budget,omitempty"`
	Trials    int    `json:"trials,omitempty"`
	Workers   int    `json:"workers,omitempty"`

	// Seed is the RNG seed the run actually used; SeedDerived marks a
	// seed auto-derived from the clock (see ResolveSeed), and
	// Deterministic marks tools that use no randomness at all.
	Seed          int64 `json:"seed"`
	SeedDerived   bool  `json:"seedDerived,omitempty"`
	Deterministic bool  `json:"deterministic,omitempty"`

	// Trace is the trace ID of a traced run (see SpanRec), derived from
	// Seed, so clients can correlate the stream's span records up front.
	Trace string `json:"trace,omitempty"`

	// Engine names the execution engine ("agent" or "count"); absent
	// means the agent engine, so pre-existing journals read unchanged.
	Engine string `json:"engine,omitempty"`
}

// NewHeader returns a header record for the named tool.
func NewHeader(tool string) Header {
	return Header{V: Version, Type: "header", Tool: tool}
}

// Progress is a periodic snapshot of a running execution. ElapsedNS is
// the only wall-clock field.
type Progress struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Trial int    `json:"trial"`

	Step    uint64 `json:"step"`
	NonNull uint64 `json:"nonNull"`
	// Quiet is the current streak of consecutive null interactions.
	Quiet int64 `json:"quiet"`
	// PairsSeen / PairsTotal measure scheduler pair coverage;
	// FairnessGap is the largest number of steps any schedulable pair
	// has gone without interacting (-1 when pair tracking is disabled
	// for very large populations).
	PairsSeen   int   `json:"pairsSeen"`
	PairsTotal  int   `json:"pairsTotal"`
	FairnessGap int64 `json:"fairnessGap"`

	ElapsedNS int64 `json:"elapsedNs"`
}

// Summary is the final record of one execution. ElapsedNS is the only
// wall-clock field.
type Summary struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Trial int    `json:"trial"`

	Converged    bool    `json:"converged"`
	Steps        uint64  `json:"steps"`
	NonNull      uint64  `json:"nonNull"`
	ParallelTime float64 `json:"parallelTime"`

	MaxQuiet     int64        `json:"maxQuiet"`
	QuietStreaks []HistBucket `json:"quietStreaks,omitempty"`

	PairsSeen   int   `json:"pairsSeen"`
	PairsTotal  int   `json:"pairsTotal"`
	FairnessGap int64 `json:"fairnessGap"`

	// Rules lists non-null rule firings, most frequent first (ties
	// broken by rule text, so the order is deterministic).
	Rules []RuleCount `json:"rules,omitempty"`

	// Forced counts the interactions a fairness-enforcing adversary was
	// forced to schedule (adversary.Runner); zero for scheduler runs.
	Forced int64 `json:"forced,omitempty"`

	ElapsedNS int64 `json:"elapsedNs"`
}

// BatchSummaryRec merges a whole batch run: convergence counts, a
// log-scale histogram of steps-to-convergence across trials, and
// worker wall-clock/utilization figures (the wall-clock fields are
// WallNS and Utilization).
type BatchSummaryRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Trials    int `json:"trials"`
	Converged int `json:"converged"`
	// Aborted and Retried count supervised trials cut short resp.
	// completed after a stall retry (absent for unsupervised batches).
	Aborted      int          `json:"aborted,omitempty"`
	Retried      int          `json:"retried,omitempty"`
	TotalSteps   int64        `json:"totalSteps"`
	TotalNonNull int64        `json:"totalNonNull"`
	StepsHist    []HistBucket `json:"stepsToConverge,omitempty"`

	Workers     int     `json:"workers"`
	WallNS      int64   `json:"wallNs"`
	Utilization float64 `json:"utilization"`
}

// LeaseRec journals one lease lifecycle event of a distributed batch
// job (see internal/dist): the coordinator issues contiguous trial
// ranges [Lo, Hi) as leases, re-issues them on peer failure with a
// bumped epoch, and accepts at most one completion per lease. State is
// one of issued / completed / reissued / failed / duplicate / restored;
// Peer names the executor ("local" or the peer base URL) and Reason
// carries the failure that triggered a re-issue. Lease records go to
// the service journal and the job store, never into the job's result
// stream — the merged stream must stay byte-identical to a 1-node run.
type LeaseRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Job    string `json:"job"`
	Lease  int    `json:"lease"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Epoch  int    `json:"epoch"`
	State  string `json:"state"`
	Peer   string `json:"peer,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// NewLeaseRec returns a lease lifecycle record.
func NewLeaseRec(job string, lease, lo, hi, epoch int, state, peer, reason string) LeaseRec {
	return LeaseRec{V: Version, Type: "lease", Job: job, Lease: lease, Lo: lo, Hi: hi, Epoch: epoch, State: state, Peer: peer, Reason: reason}
}

// CensusRec snapshots the per-state occupancy vector of a count-engine
// run. It follows every progress record (and the final one emitted by
// Finish) when the driver attached the census via Observer.TrackCensus;
// Counts[s] is the number of agents in state s at Step.
type CensusRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Trial  int    `json:"trial"`
	Step   uint64 `json:"step"`
	Counts []int  `json:"counts"`
}

// FaultRec journals one fault-layer event: an injected fault fired by a
// fault.Injector (Kind corrupt/leader/crash/churn/omit, Trigger "step"
// or "conv"), a supervisor retry (Kind "retry", Trigger "stall"), or a
// supervisor abort (Kind "abort", Trigger "stall"/"deadline"/
// "interrupt"). Step is the interaction count at which the event fired;
// Attempt numbers supervisor attempts from zero.
type FaultRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Trial   int    `json:"trial,omitempty"`
	Step    int64  `json:"step"`
	Kind    string `json:"kind"`
	Arg     int    `json:"arg,omitempty"`
	Trigger string `json:"trigger"`
	Attempt int    `json:"attempt,omitempty"`
}

// NewFaultRec returns a fault-event record.
func NewFaultRec(trial int, step int64, kind string, arg int, trigger string) FaultRec {
	return FaultRec{V: Version, Type: "fault", Trial: trial, Step: step, Kind: kind, Arg: arg, Trigger: trigger}
}

// ExperimentRec times one tagged experiment of the reproduction suite
// (WallNS is the wall-clock field).
type ExperimentRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Key string `json:"key"`
	Tag string `json:"tag,omitempty"`
	OK  bool   `json:"ok"`
	// Skipped marks an experiment that never ran (the suite driver was
	// interrupted before reaching it); OK is false but meaningless.
	Skipped bool   `json:"skipped,omitempty"`
	Detail  string `json:"detail,omitempty"`
	WallNS  int64  `json:"wallNs"`
}

// NewExperimentRec returns a timed experiment record.
func NewExperimentRec(key, tag string, ok bool, wallNS int64) ExperimentRec {
	return ExperimentRec{V: Version, Type: "experiment", Key: key, Tag: tag, OK: ok, WallNS: wallNS}
}

// ExploreRec reports one reachability-graph construction: its size,
// the worker count it ran with, and the exploration metrics the
// parallel builder collects (WallNS and NodesPerSec are the wall-clock
// fields).
type ExploreRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Protocol string `json:"protocol,omitempty"`
	N        int    `json:"n,omitempty"`
	Workers  int    `json:"workers"`

	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Depth is the number of BFS levels explored.
	Depth int `json:"depth"`

	// InternHits / InternMisses count configuration-intern lookups that
	// found resp. created a node; InternHitRate is hits over lookups.
	InternHits    uint64  `json:"internHits"`
	InternMisses  uint64  `json:"internMisses"`
	InternHitRate float64 `json:"internHitRate"`
	// ShardMin / ShardMax bound the per-shard node counts — a balance
	// measure for the hash-sharded intern maps (equal when sequential).
	ShardMin int `json:"shardMin"`
	ShardMax int `json:"shardMax"`

	WallNS      int64   `json:"wallNs"`
	NodesPerSec float64 `json:"nodesPerSec"`
}

// NewExploreRec returns an exploration-metrics record.
func NewExploreRec(protocol string, n int) ExploreRec {
	return ExploreRec{V: Version, Type: "explore", Protocol: protocol, N: n}
}

// StageRec times one internal stage of a tool run, e.g. the model
// checker's graph construction (WallNS is the wall-clock field).
type StageRec struct {
	V    int    `json:"v"`
	Type string `json:"type"`

	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	WallNS int64  `json:"wallNs"`
}

// NewStageRec returns a timed stage record.
func NewStageRec(name, detail string, wallNS int64) StageRec {
	return StageRec{V: Version, Type: "stage", Name: name, Detail: detail, WallNS: wallNS}
}
