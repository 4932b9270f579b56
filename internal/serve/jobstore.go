package serve

import (
	"encoding/json"

	"popnaming/internal/serve/store"
)

// JobStore is the pluggable durability layer behind the server: job
// admissions, lifecycle transitions and finalized NDJSON result logs.
// store.Memory keeps the pre-durability in-process behavior;
// store.WAL survives restarts (see Config.Store and the -store flag).
//
// Call ordering contract (the server upholds it, implementations may
// rely on it): Admit happens-before any SetState/AppendResults for the
// same ID; state writes for one job are serialized under the job lock,
// so Finalize is the last state write; ReadResults after Finalize sees
// the complete log. Lines passed to AppendResults keep their trailing
// newline and are never mutated afterward.
type JobStore interface {
	// Kind names the implementation ("memory", "wal") for metrics and
	// startup lines.
	Kind() string
	// Admit records a job admission with its canonical (validated,
	// seed-resolved) spec.
	Admit(id string, spec json.RawMessage, seedDerived bool) error
	// SetState records a non-terminal state. The server writes one
	// only when a restart re-queues a job (queued); recovery treats
	// queued and running alike, so a job's start is not recorded.
	SetState(id string, state string) error
	// Finalize records the terminal transition and outcome.
	Finalize(id string, fin store.Final) error
	// AppendResults appends NDJSON result lines to the job's log.
	AppendResults(id string, lines [][]byte) error
	// ResetResults discards the job's log before a re-run.
	ResetResults(id string) error
	// ReadResults returns result lines [from, to); to < 0 reads to the
	// end of the log.
	ReadResults(id string, from, to int) ([][]byte, error)
	// PutLease records a completed lease of a distributed batch job,
	// the one lease state recovery reads (latest record per lease
	// index wins on fold, completed sticky).
	PutLease(id string, l store.LeaseSnap) error
	// PutShard replaces a completed lease's shard log. The server
	// writes the shard before the completed lease record, so a
	// replayed completed lease implies a readable shard.
	PutShard(id string, lease int, lines [][]byte) error
	// ReadShard returns exactly n lines of a lease's shard log; fewer
	// intact lines than requested is an error (a torn shard), which
	// recovery answers by re-issuing the lease.
	ReadShard(id string, lease, n int) ([][]byte, error)
	// Replay returns every stored job in admission order. The server
	// calls it exactly once, at construction; a WAL store answers with
	// its open-time fold.
	Replay() ([]store.Snapshot, error)
	// Close flushes and releases the store.
	Close() error
}

var (
	_ JobStore = (*store.Memory)(nil)
	_ JobStore = (*store.WAL)(nil)
)

// storeState maps a serve job state to its stored representation. The
// two enums are aligned by construction; the indirection keeps the
// store package serve-agnostic.
func storeState(st JobState) string { return string(st) }
