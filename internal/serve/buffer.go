package serve

import (
	"errors"
	"sync"

	"popnaming/internal/obs"
)

// ErrLateEmit is returned by buffer.Emit after finalize: the job was
// sealed, its terminal record written, and nothing may follow. A late
// emit is a worker bug — the error (and the late_emits metric the
// buffer's late hook feeds) makes it detectable instead of silent.
var ErrLateEmit = errors.New("serve: emit after job finalization")

// buffer is a job's append-only NDJSON result log. The worker running
// the job emits journal records into it (it implements obs.Sink) while
// any number of HTTP streams read it concurrently; a stream that
// reaches the end blocks on the condition variable until more lines
// arrive or the buffer closes, so followers see records as the run
// produces them and get EOF exactly when the job is finalized.
//
// Lines live in RAM only up to maxBytes: past the cap the in-RAM tail
// is spilled to the job store and readers fetch the spilled prefix
// back on demand, so a long traced campaign no longer pins its whole
// journal in memory. seal spills everything and ends the log; close,
// once the job has left the server's live table, gives readers EOF.
// Logical line indexes are stable across spills: [0, start) is in the
// store, [start, start+len(lines)) in RAM.
type buffer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	lines    [][]byte // in-RAM tail; logical index of lines[0] is start
	start    int      // lines below this logical index are in the store
	memBytes int64
	maxBytes int64 // live-RAM cap
	sealed   bool  // no more lines: emits are late
	closed   bool  // readers get EOF

	// Store wiring, set at construction and immutable: spill appends
	// lines to the job's durable result log, fetch reads logical lines
	// [from, to) back, late observes emits after finalization.
	spill func(lines [][]byte) error
	fetch func(from, to int) ([][]byte, error)
	late  func()

	// storeErr retains the first spill failure. Workload sinks ignore
	// per-emit errors (obs.Sink's contract tolerates lossy sinks), so
	// runJob checks this after execution and fails the job with a
	// structured store error instead of finishing as done with records
	// silently stuck in RAM.
	storeErr error
}

func newBuffer(maxBytes int64, spill func([][]byte) error, fetch func(from, to int) ([][]byte, error), late func()) *buffer {
	b := &buffer{maxBytes: maxBytes, spill: spill, fetch: fetch, late: late}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Emit implements obs.Sink: one record per line, encoded as a
// JournalSink encodes it (obs.MarshalRecord). Emits after
// seal return ErrLateEmit. When the in-RAM tail exceeds maxBytes
// the whole tail is spilled to the store; a spill failure (e.g. disk
// full) keeps the lines in RAM — degraded but lossless — and surfaces
// the error.
func (b *buffer) Emit(rec any) error {
	line, err := obs.MarshalRecord(rec)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if b.sealed {
		b.mu.Unlock()
		b.late()
		return ErrLateEmit
	}
	err = b.appendLocked(line)
	b.mu.Unlock()
	b.cond.Broadcast()
	return err
}

// storeFailure returns the first spill error, if any.
func (b *buffer) storeFailure() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.storeErr
}

// appendRaw appends pre-marshaled, newline-terminated lines (a
// distributed batch's delivered shard), spilling as Emit does. Lines
// must never be mutated afterwards.
func (b *buffer) appendRaw(lines [][]byte) {
	b.mu.Lock()
	for _, line := range lines {
		_ = b.appendLocked(line) // kept in storeErr
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// appendLocked appends one line and, when the in-RAM tail then exceeds
// maxBytes, spills the whole tail. Callers hold b.mu.
func (b *buffer) appendLocked(line []byte) error {
	b.lines = append(b.lines, line)
	b.memBytes += int64(len(line))
	if b.memBytes <= b.maxBytes {
		return nil
	}
	return b.spillLocked()
}

// spillLocked moves the whole in-RAM tail to the store, or keeps it in
// RAM and returns the error, the first of which it keeps in storeErr;
// callers hold b.mu.
func (b *buffer) spillLocked() error {
	if err := b.spill(b.lines); err != nil {
		if b.storeErr == nil {
			b.storeErr = err
		}
		return err
	}
	b.start += len(b.lines)
	b.lines = nil
	b.memBytes = 0
	return nil
}

// seal ends the log: it spills any in-RAM tail to the store, and
// later emits are late. After seal the buffer holds no line data; len
// and wait still serve the full logical log through fetch. Readers
// keep waiting at its end until close.
func (b *buffer) seal() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sealed = true
	if len(b.lines) > 0 {
		return b.spillLocked()
	}
	return nil
}

// close gives every reader EOF once it has read the whole log.
func (b *buffer) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// len returns the number of logical lines (in store + in RAM).
func (b *buffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.start + len(b.lines)
}

// wait blocks until lines beyond logical index i exist, the buffer
// closes, or canceled reports true, and returns the lines from i on
// plus the closed flag. A prefix already spilled to the store is
// fetched back outside the lock (the store's logs are append-only, so
// the read is stable). Line slices are append-only and never mutated
// after Emit, so the returned views are safe to write without the
// lock. Cancellation is polled only at wake-ups: arrange for wake
// (e.g. via context.AfterFunc) when canceled can turn true.
func (b *buffer) wait(i int, canceled func() bool) ([][]byte, bool, error) {
	b.mu.Lock()
	for b.start+len(b.lines) <= i && !b.closed && !canceled() {
		b.cond.Wait()
	}
	closed := b.closed
	if i >= b.start {
		var lines [][]byte
		if b.start+len(b.lines) > i {
			lines = b.lines[i-b.start:]
		}
		b.mu.Unlock()
		return lines, closed, nil
	}
	spilled := b.start
	ram := append([][]byte(nil), b.lines...)
	b.mu.Unlock()
	fetched, err := b.fetch(i, spilled)
	if err != nil {
		return nil, closed, err
	}
	return append(fetched, ram...), closed, nil
}

// wake nudges every waiting reader to re-check its cancellation.
func (b *buffer) wake() {
	b.cond.Broadcast()
}
