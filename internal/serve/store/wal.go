package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"encoding/json"
)

// walFile is the WAL's file name inside the store directory.
const walFile = "wal.jsonl"

// resultsDir holds one <id>.ndjson result log per job.
const resultsDir = "results"

// WAL is the durable job store: an append-only CRC-framed JSONL
// write-ahead log for lifecycle records plus one NDJSON file per job
// for result logs, all under one directory. Opening the store replays
// the log, truncating a torn final record (a crash mid-append), so a
// SIGKILLed server restarts from exactly the records that reached the
// kernel.
//
// Durability model: records are written with plain write(2) and the
// WAL is fsynced on Finalize and Close, so process crashes (including
// SIGKILL) lose nothing and a power loss can cost at most the tail
// after the last finalized job. There is no compaction: the WAL grows
// with job count (one admit plus a handful of state records per job).
type WAL struct {
	mu    sync.Mutex
	dir   string
	f     *os.File
	seq   uint64
	snaps []Snapshot
	open  map[string]*os.File // result-log appenders for live jobs

	// out and sync are the append and fsync paths for the WAL file,
	// defaulting to f. Tests swap them to inject short writes and
	// fsync failures (see TestWALAppendError / TestWALSyncError); the
	// indirection pins that a failing disk surfaces as a structured
	// error instead of silently losing records.
	out  io.Writer
	sync func() error
}

// OpenWAL opens (or creates) a WAL store in dir, replaying the
// existing log. A torn or corrupt record truncates the log at the last
// intact record; everything before it is preserved.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(filepath.Join(dir, resultsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, walFile)
	recs, good, total, err := readWAL(path)
	if err != nil {
		return nil, err
	}
	if good < total {
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("store: truncate torn wal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{dir: dir, f: f, snaps: Fold(recs), open: make(map[string]*os.File)}
	w.out = f
	w.sync = f.Sync
	if n := len(recs); n > 0 {
		w.seq = recs[n-1].Seq
	}
	return w, nil
}

// readWAL parses the log, returning the valid records, the byte offset
// just past the last intact record, and the file size. Decoding stops
// at the first bad or torn record; the tail after it is dropped (the
// only corruption a crash can produce is at the end, and result logs
// of any job re-queued because of it are reset anyway).
func readWAL(path string) (recs []Rec, good, total int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	total = int64(len(data))
	var off int64
	for off < total {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final record: no newline reached the disk
		}
		rec, derr := DecodeRec(data[off : off+int64(nl)])
		if derr != nil {
			break // torn or corrupt: truncate here
		}
		recs = append(recs, rec)
		off += int64(nl) + 1
		good = off
	}
	return recs, good, total, nil
}

// Kind identifies the implementation for metrics and startup lines.
func (w *WAL) Kind() string { return "wal" }

// appendLocked frames and writes one record; callers hold w.mu.
func (w *WAL) appendLocked(r Rec) error {
	w.seq++
	r.V = Version
	r.Seq = w.seq
	line, err := EncodeRec(r)
	if err != nil {
		return err
	}
	n, err := w.out.Write(line)
	if err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if n < len(line) {
		return fmt.Errorf("store: wal append: short write (%d of %d bytes)", n, len(line))
	}
	return nil
}

// Admit records a job admission.
func (w *WAL) Admit(id string, spec json.RawMessage, seedDerived bool) error {
	if err := validID(id); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(Rec{T: RecAdmit, ID: id, Spec: spec, SeedDerived: seedDerived})
}

// SetState records a non-terminal transition.
func (w *WAL) SetState(id, state string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(Rec{T: RecState, ID: id, State: state})
}

// Finalize syncs and closes the job's result log, records the terminal
// transition and fsyncs the WAL, in that order — so a replayed
// terminal record always implies a complete result log.
func (w *WAL) Finalize(id string, fin Final) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rf, ok := w.open[id]; ok {
		delete(w.open, id)
		if err := rf.Sync(); err != nil {
			rf.Close()
			return fmt.Errorf("store: results sync: %w", err)
		}
		if err := rf.Close(); err != nil {
			return fmt.Errorf("store: results close: %w", err)
		}
	}
	if err := w.appendLocked(fin.rec(id)); err != nil {
		return err
	}
	if err := w.sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	return nil
}

// AppendResults appends NDJSON lines (each with its trailing newline)
// to the job's result log, opening it lazily on first use.
func (w *WAL) AppendResults(id string, lines [][]byte) error {
	if err := validID(id); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	rf, ok := w.open[id]
	if !ok {
		var err error
		rf, err = os.OpenFile(w.resultPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		w.open[id] = rf
	}
	if _, err := rf.Write(bytes.Join(lines, nil)); err != nil {
		return fmt.Errorf("store: results append: %w", err)
	}
	return nil
}

// ResetResults discards the job's result log (before a re-run).
func (w *WAL) ResetResults(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if rf, ok := w.open[id]; ok {
		delete(w.open, id)
		rf.Close()
	}
	if err := os.Remove(w.resultPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadResults returns result lines [from, to) (to < 0 reads to the
// end). The log is append-only, so reading concurrently with appends
// is safe; a trailing line without its newline (torn by a crash) is
// dropped.
func (w *WAL) ReadResults(id string, from, to int) ([][]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if from == to {
		return nil, nil
	}
	data, err := os.ReadFile(w.resultPath(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: results %s: no log (want lines [%d,%d))", id, from, to)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lines := splitLines(data)
	if to < 0 {
		to = len(lines)
	}
	if from < 0 || from > to || to > len(lines) {
		return nil, fmt.Errorf("store: results %s: want lines [%d,%d), have %d", id, from, to, len(lines))
	}
	return lines[from:to], nil
}

// splitLines slices a log read in one piece into its newline-terminated
// lines, each a view into data that keeps its newline; a final line
// without one (torn by a crash) is dropped.
func splitLines(data []byte) [][]byte {
	lines := bytes.SplitAfter(data, []byte{'\n'})
	return lines[:len(lines)-1]
}

// Replay returns the jobs folded from the log at open time, in
// admission order.
func (w *WAL) Replay() ([]Snapshot, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Snapshot(nil), w.snaps...), nil
}

// Close fsyncs and closes the WAL and any open result logs.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, rf := range w.open {
		delete(w.open, id)
		rf.Sync()
		rf.Close()
	}
	if err := w.sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return w.f.Close()
}

func (w *WAL) resultPath(id string) string {
	return filepath.Join(w.dir, resultsDir, id+".ndjson")
}

// validID rejects IDs that could escape the results directory. Server
// IDs are j%06d; the check keeps the store safe as a library.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	return nil
}
