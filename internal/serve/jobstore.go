package serve

import (
	"encoding/json"

	"popnaming/internal/serve/store"
)

// JobStore is the pluggable durability layer behind the server: job
// admissions, lifecycle transitions and finalized NDJSON result logs,
// and nothing else. A distributed batch's completed lease is stored as
// a done shard job of its own, so a restarted coordinator finds it in
// the result cache (see Server.keepShard). Finished jobs live here and
// not in the server's heap: the server keeps a compact index entry per
// finished job and reads the rest back through Lookup and ReadResults. store.Memory keeps the
// pre-durability in-process behavior; store.WAL survives restarts (see
// Config.Store and the -store flag).
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
	// Replay returns every stored job in admission order. The server
	// calls it exactly once, at construction; a WAL store answers with
	// its open-time fold and then drops it.
	Replay() ([]store.Snapshot, error)
	// Lookup returns one job's snapshot, folded as Replay folds it,
	// from one indexed read (an ID never admitted is an error). The
	// server reads a finished job's view through it.
	Lookup(id string) (store.Snapshot, error)
	// Close flushes and releases the store.
	Close() error
}

var (
	_ JobStore = (*store.Memory)(nil)
	_ JobStore = (*store.WAL)(nil)
)
