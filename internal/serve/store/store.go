// Package store persists ppserved jobs across process restarts: job
// admissions, lifecycle state transitions and finalized NDJSON result
// logs. Two implementations share one record model — Memory (the
// pre-durability behavior: the same records kept in memory, gone with
// the process) and WAL (an append-only write-ahead log plus per-job
// result files, stdlib only) — mirroring the in-memory-vs-append-only split common
// in audit-log services, so the serving layer programs against one
// interface and the deployment picks the durability.
//
// The WAL record stream is the source of truth for job lifecycle:
// one CRC-framed JSON record per admission ("admit") and per recorded
// state ("state": the terminal outcome, and "queued" when a restart
// re-queues a job), folded at open into per-job snapshots in admission
// order. Terminal states are sticky under Fold, so a late-arriving
// state record (a crash-window reordering) can never resurrect a
// finished job. Result logs live outside the WAL in
// results/<id>.ndjson, referenced by the terminal record's line count.
// The store persists jobs and nothing else: a distributed batch's
// completed lease is kept by the serving layer as a done shard job of
// its own.
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// Version is the WAL record schema version.
const Version = 1

// Record kinds. Logs written before completed leases became shard
// jobs also hold "lease" records; Fold ignores them, so such a log
// opens and its leases run again once.
const (
	// RecAdmit records a job admission: ID, canonical spec, seed origin.
	RecAdmit = "admit"
	// RecState records a lifecycle transition; terminal transitions
	// carry the outcome (error, summary, result line count). Terminal
	// records written before cache hits stopped being jobs may also
	// carry "cached": true, which decodes as an ignored field.
	RecState = "state"
)

// Job lifecycle states as stored. They mirror serve.JobState but the
// store is deliberately serve-agnostic (plain strings), so the
// dependency points one way only.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether a stored state is final.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Rec is one WAL record. Admission records carry Spec/SeedDerived;
// state records carry State and, when terminal, the outcome fields.
type Rec struct {
	V   int    `json:"v"`
	Seq uint64 `json:"seq"`
	T   string `json:"t"`
	ID  string `json:"id"`

	Spec        json.RawMessage `json:"spec,omitempty"`
	SeedDerived bool            `json:"seedDerived,omitempty"`

	State       string          `json:"state,omitempty"`
	Error       string          `json:"error,omitempty"`
	Summary     json.RawMessage `json:"summary,omitempty"`
	WallNS      int64           `json:"wallNs,omitempty"`
	ResultLines int             `json:"resultLines,omitempty"`
}

// Final describes a job's terminal transition as handed to
// JobStore.Finalize: the outcome plus the finalized result log's line
// count, which Replay uses to mark the log complete.
type Final struct {
	State       string
	Error       string
	Summary     json.RawMessage
	WallNS      int64
	ResultLines int
}

// rec is the terminal state record of job id.
func (fin Final) rec(id string) Rec {
	return Rec{
		T: RecState, ID: id, State: fin.State, Error: fin.Error,
		Summary: fin.Summary, WallNS: fin.WallNS, ResultLines: fin.ResultLines,
	}
}

// Snapshot is one job's folded durable state, as returned by Replay in
// admission order. Jobs whose State is non-terminal were queued or
// running at crash time and should be re-queued by the caller.
type Snapshot struct {
	ID          string
	Spec        json.RawMessage
	SeedDerived bool
	State       string
	Error       string
	Summary     json.RawMessage
	WallNS      int64
	ResultLines int
}

// EncodeRec frames a record as one WAL line: an 8-hex-digit CRC32
// (IEEE) of the JSON body, a space, the JSON, a newline. The checksum
// lets DecodeRec distinguish a torn or corrupted tail from a valid
// record during replay.
func EncodeRec(r Rec) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x", crc32.ChecksumIEEE(body))...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// DecodeRec parses one WAL line (without its trailing newline). Any
// framing, checksum or JSON failure returns an error — replay treats
// that as the torn tail of the log and truncates there.
func DecodeRec(line []byte) (Rec, error) {
	var r Rec
	if len(line) < 10 || line[8] != ' ' {
		return r, fmt.Errorf("store: short or unframed record (%d bytes)", len(line))
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return r, fmt.Errorf("store: bad record checksum field: %w", err)
	}
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != uint32(sum) {
		return r, fmt.Errorf("store: record checksum mismatch (want %08x, got %08x)", sum, got)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("store: bad record body: %w", err)
	}
	return r, nil
}

// Fold replays a record sequence into per-job snapshots in admission
// order. Unknown job IDs, duplicate admissions and records of other
// kinds are ignored, and terminal states are sticky: once a job is
// done/failed/canceled, later state records cannot change it. Logs
// written by earlier versions hold "running" state records, which fold
// like any other non-terminal record.
func Fold(recs []Rec) []Snapshot {
	idx := make(map[string]int)
	var snaps []Snapshot
	for _, r := range recs {
		switch r.T {
		case RecAdmit:
			if _, ok := idx[r.ID]; ok {
				continue
			}
			idx[r.ID] = len(snaps)
			snaps = append(snaps, Snapshot{
				ID: r.ID, Spec: r.Spec, SeedDerived: r.SeedDerived, State: StateQueued,
			})
		case RecState:
			i, ok := idx[r.ID]
			if !ok || Terminal(snaps[i].State) {
				continue
			}
			s := &snaps[i]
			s.State = r.State
			if Terminal(r.State) {
				s.Error = r.Error
				s.Summary = r.Summary
				s.WallNS = r.WallNS
				s.ResultLines = r.ResultLines
			}
		}
	}
	return snaps
}
