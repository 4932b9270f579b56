package sim

import (
	"context"
	"time"

	"popnaming/internal/core"
)

// Workspace is the trial state a batch goroutine reuses.
type Workspace = workspace

// RunBatchOn is RunBatch on one goroutine that runs every trial on ws
// instead of on a workspace from the pool.
func RunBatchOn(ws *Workspace, ctx context.Context, pr core.Protocol, lo, hi int, sup Supervision, bo BatchObs, mk func(trial, attempt int) Trial) BatchSummary {
	b := newBatch(ctx, pr, lo, hi, sup, bo, mk)
	start := time.Now()
	b.run(ws)
	return b.summary(1, time.Since(start).Nanoseconds())
}
