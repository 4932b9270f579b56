package grid

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"popnaming/internal/dist"
	"popnaming/internal/obs"
)

// Tool names the pipeline in journal headers. Both execution paths
// stamp it — a cell journal is a ppanalyze artifact regardless of
// where its trials ran — so local and server journals are identical
// modulo wall-clock record fields.
const Tool = "ppanalyze"

// A CellRunner executes one grid cell and writes its journal (header
// plus workload records, v1 JSONL) to w.
type CellRunner interface {
	RunCell(ctx context.Context, sp *Spec, c Cell, w io.Writer) error
}

// LocalRunner executes each cell's admitted job in-process through the
// service execution recipe (Prepared.Run), which is what guarantees the
// local path and a ppserved node produce the same records for the same
// cell. A cell that Spec.Cells did not admit fails.
type LocalRunner struct{}

func (LocalRunner) RunCell(ctx context.Context, _ *Spec, c Cell, w io.Writer) error {
	p, err := c.admitted()
	if err != nil {
		return err
	}
	sink := obs.NewJournalSink(w)
	if err := sink.Emit(p.Header(Tool)); err != nil {
		return err
	}
	sum := p.Run(ctx, sink)
	for _, r := range sum.Results {
		if r.Err != nil {
			return fmt.Errorf("cell %s trial %d: %w", c.ID(), r.Trial, r.Err)
		}
	}
	return sink.Err()
}

// ServerRunner executes cells on a ppserved node over the v1 job API,
// posting each cell's admitted spec as one batch job (a cell that
// Spec.Cells did not admit fails before any request), with the peer
// health gating the lease sharding uses: a /readyz probe before work,
// quarantine on repeated failure, bounded retries with backoff.
// Identical resubmissions hit the node's content-addressed result
// cache, which answers them from the stored stream of the spec's first
// run, so re-running an unchanged grid costs the server no simulation
// work, and each cached cell one request (the stream comes back in the
// submit's response).
type ServerRunner struct {
	// Peer is the target node (Base URL required).
	Peer *dist.Peer
	// Retries bounds resubmission attempts per cell after the first
	// (0: none).
	Retries int
	// Backoff is the base retry delay, doubled per attempt. Tests
	// shrink it.
	Backoff time.Duration
}

// NewServerRunner returns a runner for the node at base URL with the
// default retry policy: 2 resubmissions, 100ms base backoff.
func NewServerRunner(base string) *ServerRunner {
	return &ServerRunner{Peer: &dist.Peer{Base: base}, Retries: 2, Backoff: 100 * time.Millisecond}
}

func (sr *ServerRunner) RunCell(ctx context.Context, _ *Spec, c Cell, w io.Writer) error {
	// The node admits the posted spec to itself, so its cache key and
	// header are the cell's; the header is rendered locally.
	p, err := c.admitted()
	if err != nil {
		return err
	}
	body, err := json.Marshal(p.Spec())
	if err != nil {
		return err
	}
	r := dist.Range{Lo: 0, Hi: p.Spec().Trials}
	var lines [][]byte
	var lastErr error
	for attempt := 0; attempt <= sr.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sr.Backoff << (attempt - 1)):
			}
		}
		if !sr.Peer.Ready(ctx) {
			lastErr = fmt.Errorf("cell %s: peer %s not ready", c.ID(), sr.Peer.Name())
			continue
		}
		lines, lastErr = sr.Peer.RunBody(ctx, r, body)
		sr.Peer.Observe(lastErr == nil)
		if lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		return lastErr
	}
	// The peer client returns the stream without its service envelope
	// (the server's header and terminal job record), so the journal
	// is the grid's header plus the workload records: exactly the
	// local journal's shape.
	header, err := obs.MarshalRecord(p.Header(Tool))
	if err != nil {
		return err
	}
	if _, err := w.Write(header); err != nil {
		return err
	}
	for _, line := range lines {
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
