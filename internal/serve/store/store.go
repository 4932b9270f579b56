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
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
)

// Version is the WAL record schema version.
const Version = 1

// Record kinds.
const (
	// RecAdmit records a job admission: ID, canonical spec, seed origin.
	RecAdmit = "admit"
	// RecState records a lifecycle transition; terminal transitions
	// carry the outcome (error, summary, result line count). Terminal
	// records written before cache hits stopped being jobs may also
	// carry "cached": true, which decodes as an ignored field.
	RecState = "state"
	// RecLease records a lease transition of a distributed batch job
	// (see internal/dist): the coordinator persists completed leases
	// so a crash-restart re-issues only incomplete ones.
	RecLease = "lease"
)

// Lease states as stored. Only LeaseCompleted matters for recovery
// (anything else is incomplete and gets re-issued); completed is
// sticky under Fold, mirroring at-most-once result acceptance.
const (
	LeaseIssued    = "issued"
	LeaseCompleted = "completed"
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

	Lease *LeaseSnap `json:"lease,omitempty"`
}

// LeaseSnap is one lease's durable state: the contiguous trial range
// [Lo, Hi) it covers, its issue epoch, and — when completed — the line
// count of its shard log (results/<id>.shard<idx>.ndjson under the
// WAL), which recovery uses to tell a complete shard from a torn one.
type LeaseSnap struct {
	Idx   int    `json:"idx"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Epoch int    `json:"epoch"`
	State string `json:"state"`
	Peer  string `json:"peer,omitempty"`
	Lines int    `json:"lines,omitempty"`
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
	// Leases holds the folded lease states of a distributed batch job
	// in lease-index order (latest record per index wins, completed
	// sticky). Empty for jobs that never ran distributed.
	Leases []LeaseSnap
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
// order. Unknown job IDs and duplicate admissions are ignored, and
// terminal states are sticky: once a job is done/failed/canceled, later
// state records cannot change it. Logs written by earlier versions
// hold "running" state and "issued" lease records; they fold like any
// other non-terminal record.
func Fold(recs []Rec) []Snapshot {
	idx := make(map[string]int)
	lidx := make(map[string]map[int]int) // job -> lease idx -> position in Leases
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
		case RecLease:
			i, ok := idx[r.ID]
			if !ok || r.Lease == nil {
				continue
			}
			s := &snaps[i]
			lm := lidx[r.ID]
			if lm == nil {
				lm = make(map[int]int)
				lidx[r.ID] = lm
			}
			p, ok := lm[r.Lease.Idx]
			if !ok {
				lm[r.Lease.Idx] = len(s.Leases)
				s.Leases = append(s.Leases, *r.Lease)
				continue
			}
			if s.Leases[p].State == LeaseCompleted {
				continue // completed is sticky: at-most-once acceptance
			}
			s.Leases[p] = *r.Lease
		}
	}
	for i := range snaps {
		sort.Slice(snaps[i].Leases, func(a, b int) bool {
			return snaps[i].Leases[a].Idx < snaps[i].Leases[b].Idx
		})
	}
	return snaps
}
