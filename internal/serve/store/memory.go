package store

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Memory is the in-memory job store: the pre-durability behavior
// (nothing survives the process), extracted behind the store interface
// so the serving layer stays implementation-blind. Lifecycle
// transitions are kept as the same Rec sequence the WAL writes, and
// Replay folds them with Fold, so both stores answer by one set of
// rules; result logs live in a map. It also doubles as the
// restart-recovery test double: hand the same *Memory to a second
// server and Replay returns everything the first one stored.
type Memory struct {
	mu      sync.Mutex
	recs    []Rec
	results map[string][][]byte
}

// NewMemory builds an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{results: make(map[string][][]byte)}
}

// Kind identifies the implementation for metrics and startup lines.
func (m *Memory) Kind() string { return "memory" }

func (m *Memory) record(r Rec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, r)
	return nil
}

// Admit records a new job admission.
func (m *Memory) Admit(id string, spec json.RawMessage, seedDerived bool) error {
	return m.record(Rec{T: RecAdmit, ID: id, Spec: append(json.RawMessage(nil), spec...), SeedDerived: seedDerived})
}

// SetState records a non-terminal transition (queued on re-queue).
func (m *Memory) SetState(id, state string) error {
	return m.record(Rec{T: RecState, ID: id, State: state})
}

// Finalize records a terminal transition and its outcome.
func (m *Memory) Finalize(id string, fin Final) error {
	fin.Summary = append(json.RawMessage(nil), fin.Summary...)
	return m.record(fin.rec(id))
}

// AppendResults appends finalized or spilled NDJSON lines (each with
// its trailing newline) to the job's result log.
func (m *Memory) AppendResults(id string, lines [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.results[id] = append(m.results[id], lines...)
	return nil
}

// ResetResults discards the job's result log (before a re-run).
func (m *Memory) ResetResults(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.results, id)
	return nil
}

// ReadResults returns result lines [from, to) (to < 0 reads to the
// end). Lines are append-only and never mutated, so the returned views
// are safe to write without a copy.
func (m *Memory) ReadResults(id string, from, to int) ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lines := m.results[id]
	if to < 0 {
		to = len(lines)
	}
	if from < 0 || from > to || to > len(lines) {
		return nil, fmt.Errorf("store: results %s: want lines [%d,%d), have %d", id, from, to, len(lines))
	}
	return lines[from:to], nil
}

// Replay folds the recorded transitions into every stored job's
// snapshot, in admission order.
func (m *Memory) Replay() ([]Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Fold(m.recs), nil
}

// Close is a no-op for the in-memory store.
func (m *Memory) Close() error { return nil }
