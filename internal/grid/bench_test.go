package grid

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"popnaming/internal/serve"
)

// benchSpec is a small fixed grid (4 cells) so the three execution
// paths are directly comparable in cells/sec.
const benchSpec = `{
	"name":"bench",
	"protocols":["asym","selfstab"],
	"populations":[{"p":6,"n":4},{"p":6,"n":6}],
	"trials":4,"budget":300000,"seed":13}`

func benchCells(b *testing.B, runner CellRunner) {
	sp, err := Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	cells := sp.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if err := runner.RunCell(context.Background(), sp, c, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkGridLocal runs the grid through the in-process runner.
func BenchmarkGridLocal(b *testing.B) {
	benchCells(b, LocalRunner{})
}

func benchServer(b *testing.B) *ServerRunner {
	s, err := serve.New(serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(s.Close)
	sr := NewServerRunner(ts.URL)
	sr.Backoff = time.Millisecond
	return sr
}

// BenchmarkGridServer runs the grid over the v1 job API against an
// in-process ppserved with a cold cache per iteration — unreachable in
// practice (the cache has no per-job eviction), so the seed varies per
// iteration to force real simulation.
func BenchmarkGridServer(b *testing.B) {
	sr := benchServer(b)
	sp, err := Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		// A fresh master seed per iteration reshuffles every cell
		// seed, so no submission can hit the cache.
		sp.Seed = int64(1000 + i)
		for _, c := range sp.Cells() {
			if err := sr.RunCell(context.Background(), sp, c, io.Discard); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkGridServerCached re-runs an unchanged grid: after a warmup
// pass every submission is answered from the node's content-addressed
// result cache.
func BenchmarkGridServerCached(b *testing.B) {
	sr := benchServer(b)
	sp, err := Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	cells := sp.Cells()
	for _, c := range cells {
		if err := sr.RunCell(context.Background(), sp, c, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if err := sr.RunCell(context.Background(), sp, c, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// smallGrid is the bench module's small-cell grid (local-small,
// server-cold and server-cached) at its default seed: 24 exact-size
// cells, half of them with a step fault, half from arbitrary starts.
const smallGrid = `{"protocols":["asym","selfstab","symglobal"],"populations":[{"p":6,"n":4},{"p":6,"n":6}],"inits":["zero","arbitrary"],"faults":["","@100:corrupt=2"],"trials":4,"budget":300000,"seed":1}`

// countGrid is the bench module's sim-heavy count grid: two count cells
// at N = 10⁶ > P, where no trial converges and each runs its whole
// budget.
const countGrid = `{"protocols":["asym","selfstab"],"engines":["count"],"populations":[{"p":64,"n":1000000}],"trials":2,"budget":2000000}`

// BenchmarkCampaignExecute is the whole-campaign rung: the small grid
// through Campaign.Execute with LocalRunner and one cell worker, so the
// journal files, the reduction and the artifact files are timed with
// the cells. Each iteration runs at a fresh master seed; its output is
// read for allocations and removed outside the timer. It reports
// cells/s, allocs/cell and B/cell (bytes allocated). Run it with TMPDIR on a tmpfs, at -cpu 1,2:
// at -cpu 1 no processor is spare to finish cells.
func BenchmarkCampaignExecute(b *testing.B) {
	benchCampaign(b, smallGrid)
}

// BenchmarkCampaignCount is BenchmarkCampaignExecute over the count
// grid, where a cell is two long trials: at -cpu 2 the spare processor
// runs one of them, at -cpu 1 the cell's one worker runs both.
func BenchmarkCampaignCount(b *testing.B) {
	benchCampaign(b, countGrid)
}

// benchCampaign times grid through Campaign.Execute with LocalRunner and
// one cell worker, a fresh master seed per iteration, and reports
// cells/s, allocs/cell and B/cell.
func benchCampaign(b *testing.B, grid string) {
	sp, err := Parse(strings.NewReader(grid))
	if err != nil {
		b.Fatal(err)
	}
	out := filepath.Join(b.TempDir(), "campaign")
	cells := len(sp.Cells())
	var mallocs, allocated uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Seed = int64(1000 + i)
		var m0, m1 runtime.MemStats
		b.StopTimer()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: out, Workers: 1}
		if _, err := cp.Execute(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocated += m1.TotalAlloc - m0.TotalAlloc
		if err := os.RemoveAll(out); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(b.N * cells)
	b.ReportMetric(n/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(mallocs)/n, "allocs/cell")
	b.ReportMetric(float64(allocated)/n, "B/cell")
}

// BenchmarkReduceCell is the journal-decode rung: it reduces the small
// grid's 24 journals from memory, with the reducer's obs.ScanJournal
// ("scan") and with the obs.ReadJournal reducer it replaced
// ("reference"), and reports ns/cell and allocs/cell.
func BenchmarkReduceCell(b *testing.B) {
	sp, err := Parse(strings.NewReader(smallGrid))
	if err != nil {
		b.Fatal(err)
	}
	cells := sp.Cells()
	journals := make([][]byte, len(cells))
	for i, c := range cells {
		var buf bytes.Buffer
		if err := (LocalRunner{}).RunCell(context.Background(), sp, c, &buf); err != nil {
			b.Fatal(err)
		}
		journals[i] = buf.Bytes()
	}
	for _, r := range []struct {
		name   string
		reduce func(Cell, []byte) (CellStats, error)
	}{
		{"reference", func(c Cell, journal []byte) (CellStats, error) { return refReduceCell(c, bytes.NewReader(journal)) }},
		{"scan", reduceCell},
	} {
		b.Run(r.name, func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, c := range cells {
					if _, err := r.reduce(c, journals[k]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(b.N * len(cells))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/cell")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/cell")
		})
	}
}

// BenchmarkWriteArtifacts is the artifact rung: the small grid's 24
// reduced cells through writeArtifacts, which renders and writes the
// summary table (text, CSV and LaTeX) and each cell's ASCII and SVG
// convergence plot, files included, into a directory under TMPDIR. Run
// it with TMPDIR on a tmpfs. It reports ns/op and allocs/op per pass.
func BenchmarkWriteArtifacts(b *testing.B) {
	sp, err := Parse(strings.NewReader(smallGrid))
	if err != nil {
		b.Fatal(err)
	}
	cells := sp.Cells()
	stats := make([]CellStats, len(cells))
	for i, c := range cells {
		var journal bytes.Buffer
		if err := (LocalRunner{}).RunCell(context.Background(), sp, c, &journal); err != nil {
			b.Fatal(err)
		}
		if stats[i], err = reduceCell(c, journal.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	wireKS(stats)
	cp := &Campaign{Spec: sp, Out: b.TempDir()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.writeArtifacts(stats); err != nil {
			b.Fatal(err)
		}
	}
}
