package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"popnaming/internal/dist"
	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/sim"
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

// LocalRunner executes cells in-process through the service admission
// and execution recipe (serve.Prepare), which is what guarantees the
// local path and a ppserved node produce the same records for the same
// cell.
type LocalRunner struct{}

func (LocalRunner) RunCell(ctx context.Context, sp *Spec, c Cell, w io.Writer) error {
	p, err := serve.Prepare(sp.JobSpec(c))
	if err != nil {
		return fmt.Errorf("cell %s: %w", c.ID(), err)
	}
	sink := obs.NewJournalSink(w)
	if err := sink.Emit(p.Header(Tool)); err != nil {
		return err
	}
	js := p.Spec()
	bo := sim.BatchObs{Sink: sink, ProgressEvery: js.ProgressEvery}
	sum := sim.RunBatch(ctx, p.Proto(), 0, js.Trials, js.Workers, p.Supervision(sink), bo, p.TrialMaker())
	for _, r := range sum.Results {
		if r.Err != nil {
			return fmt.Errorf("cell %s trial %d: %w", c.ID(), r.Trial, r.Err)
		}
	}
	return sink.Err()
}

// ServerRunner executes cells on a ppserved node over the v1 job API,
// one batch job per cell, with the peer health gating the lease
// sharding uses: a /readyz probe before work, quarantine on repeated
// failure, bounded retries with backoff. Identical resubmissions hit
// the node's content-addressed result cache, so re-running an
// unchanged grid costs the server no simulation work.
type ServerRunner struct {
	// Peer is the target node (Base URL required).
	Peer *dist.Peer
	// Retries bounds resubmission attempts per cell after the first
	// (default 2).
	Retries int
	// Backoff is the base retry delay, doubled per attempt (default
	// 100ms). Tests shrink it.
	Backoff time.Duration
}

// NewServerRunner returns a runner for the node at base URL.
func NewServerRunner(base string) *ServerRunner {
	return &ServerRunner{Peer: &dist.Peer{Base: base}}
}

func (sr *ServerRunner) retries() int {
	if sr.Retries > 0 {
		return sr.Retries
	}
	return 2
}

func (sr *ServerRunner) backoff() time.Duration {
	if sr.Backoff > 0 {
		return sr.Backoff
	}
	return 100 * time.Millisecond
}

func (sr *ServerRunner) RunCell(ctx context.Context, sp *Spec, c Cell, w io.Writer) error {
	// The header is rendered locally from the same validated spec the
	// server would build, so both paths stamp identical headers.
	p, err := serve.Prepare(sp.JobSpec(c))
	if err != nil {
		return fmt.Errorf("cell %s: %w", c.ID(), err)
	}
	body, err := json.Marshal(sp.JobSpec(c))
	if err != nil {
		return err
	}
	r := dist.Range{Lo: 0, Hi: p.Spec().Trials}
	var lines [][]byte
	var lastErr error
	for attempt := 0; attempt <= sr.retries(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sr.backoff() << (attempt - 1)):
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
	sink := obs.NewJournalSink(w)
	if err := sink.Emit(p.Header(Tool)); err != nil {
		return err
	}
	return writeStripped(w, lines)
}

// writeStripped writes the workload records of a result stream,
// dropping the service envelope — the server's header (the grid stamps
// its own) and the terminal job record — so a server-run cell journal
// has exactly the local journal's shape.
func writeStripped(w io.Writer, lines [][]byte) error {
	for _, line := range lines {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(line), &probe); err != nil {
			return fmt.Errorf("grid: bad stream record: %w", err)
		}
		if probe.Type == "header" || probe.Type == "job" {
			continue
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
