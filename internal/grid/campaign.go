package grid

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"popnaming/internal/report"
	"popnaming/internal/sim"
)

// Campaign executes a grid spec into an output directory:
// out/journals/<cell>.jsonl per cell, then the reduced artifacts
// out/summary.{csv,txt,tex}, out/growth.{csv,txt,tex} when GrowthTable
// has a row, out/epochs.{csv,txt,tex} when some cell's plan has a conv
// group, and out/plots/<cell>.{txt,svg}.
type Campaign struct {
	Spec   *Spec
	Runner CellRunner
	// Out is the campaign directory; created if absent.
	Out string
	// Workers bounds concurrently running cells (default 1). Processors
	// beyond the cell workers finish cells and join running cells'
	// batches (see Execute).
	Workers int
	// Resume skips cells whose journal is already complete (intact
	// tail, matching seed, full batch summary) instead of re-running
	// them; incomplete or torn journals re-run.
	Resume bool
	// Log, when non-nil, receives one progress line per cell.
	Log io.Writer
}

// CellError pairs a failed cell with its error.
type CellError struct {
	Cell Cell
	Err  error
}

// Result reports a campaign execution.
type Result struct {
	Cells   []Cell
	Ran     int
	Skipped int
	Failed  []CellError
	Stats   []CellStats
}

// JournalPath is the cell's journal location under the campaign
// directory.
func (cp *Campaign) JournalPath(c Cell) string {
	return filepath.Join(cp.Out, "journals", c.ID()+".jsonl")
}

// Execute expands the grid once, runs every cell (respecting Resume),
// reduces the journals and writes the artifacts. A grid with a cell
// that admission refused fails with Validate's error before any
// directory is made. Cell failures don't stop the campaign: remaining
// cells run, the failures come back in Result.Failed, and reduction
// covers the successful cells only — err is reserved for campaign-level
// failures (bad spec, unwritable directory, a journal that does not
// reduce).
//
// A worker runs a cell into a journal buffer and offers finishing it
// (writing the journal to its path and reducing the same bytes) to an
// idle helper, or finishes it itself, and runs its next cell. Running
// batches offer helpers places as trial workers on the same channel
// (sim.WithIdle). There is one helper per spare processor (GOMAXPROCS
// beyond the min(Workers, cells) cell workers), so there are none when
// the cell workers fill every processor and each worker finishes its
// own cells and runs its batches alone: a helper that shared a
// processor with the workers would slow the cells it waits for. A
// journal is in memory only while its cell runs or finishes.
func (cp *Campaign) Execute(ctx context.Context) (*Result, error) {
	cells := cp.Spec.Cells()
	if err := refused(cells); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cp.Out, "journals"), 0o755); err != nil {
		return nil, err
	}
	res := &Result{Cells: cells}
	outs := make([]cellOutcome, len(cells))
	workers := min(max(cp.Workers, 1), len(cells))
	spare := max(runtime.GOMAXPROCS(0)-workers, 0)
	var mu sync.Mutex
	record := func(i int, out cellOutcome) {
		mu.Lock()
		defer mu.Unlock()
		outs[i] = out
		var status string
		switch {
		case out.err != nil:
			status = "FAILED: " + out.err.Error()
		case out.ran:
			res.Ran++
			status = "done"
		default:
			res.Skipped++
			status = "resumed (journal complete)"
		}
		if cp.Log != nil {
			fmt.Fprintf(cp.Log, "cell %s: %s\n", cells[i].ID(), status)
		}
	}

	// free holds the journal buffers not in use. Every buffer is held by
	// a worker, a helper or free, and one is made only when free is
	// empty, so free has room for all of them and putting one back
	// never blocks.
	free := make(chan *bytes.Buffer, workers+spare)
	// idle is unbuffered: a send succeeds only when a helper is idle.
	idle := make(chan func())
	var helpers sync.WaitGroup
	for range spare {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for work := range idle {
				work()
			}
		}()
	}
	if spare > 0 {
		ctx = sim.WithIdle(ctx, idle)
	}
	fanOut(len(cells), workers, func(i int) {
		c := cells[i]
		if cp.Resume {
			if cs, ok := cp.completeStats(c, cp.JournalPath(c)); ok {
				record(i, cellOutcome{stats: cs})
				return
			}
		}
		var journal *bytes.Buffer
		select {
		case journal = <-free:
			journal.Reset()
		default:
			journal = new(bytes.Buffer)
		}
		if err := cp.Runner.RunCell(ctx, cp.Spec, c, journal); err != nil {
			free <- journal
			record(i, cellOutcome{err: err})
			return
		}
		finish := func() {
			record(i, cp.finishCell(c, journal.Bytes()))
			free <- journal
		}
		select {
		case idle <- finish:
		default:
			finish()
		}
	})
	// Every batch has returned, so nothing offers work any more; the
	// helpers end once they have run what they were handed.
	close(idle)
	helpers.Wait()

	stats := make([]CellStats, 0, len(cells))
	var reduceErr error
	for i, out := range outs {
		switch {
		case out.err != nil:
			res.Failed = append(res.Failed, CellError{Cell: cells[i], Err: out.err})
		case out.reduceErr != nil:
			if reduceErr == nil {
				reduceErr = fmt.Errorf("grid: reduce cell %s: %w", cells[i].ID(), out.reduceErr)
			}
		default:
			stats = append(stats, out.stats)
		}
	}
	if reduceErr != nil {
		return res, reduceErr
	}
	wireKS(stats)
	res.Stats = stats
	if err := cp.writeArtifacts(stats); err != nil {
		return res, err
	}
	return res, nil
}

// fanOut calls fn(i) for every i in [0, n) from min(workers, n)
// goroutines and returns when all calls have.
func fanOut(n, workers int, fn func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cellOutcome is one cell's result inside Execute.
type cellOutcome struct {
	stats     CellStats
	ran       bool  // false when resumed from a complete journal
	err       error // the cell failed; it goes to Result.Failed
	reduceErr error // the journal did not reduce; the campaign fails
}

// finishCell writes a cell's journal, the bytes its runner just
// produced, to its journal path atomically: they go to a temp file
// renamed into place, so a failed cell never leaves a
// plausible-looking journal behind (at worst a *.tmp). The cell is
// reduced from the same bytes, not read back from the file.
func (cp *Campaign) finishCell(c Cell, journal []byte) cellOutcome {
	if err := writeFileWith(cp.JournalPath(c), func(w io.Writer) error {
		_, err := w.Write(journal)
		return err
	}); err != nil {
		return cellOutcome{err: err}
	}
	cs, err := reduceCell(c, journal)
	return cellOutcome{stats: cs, ran: true, reduceErr: err}
}

// completeStats reduces the cell's journal on disk and reports whether
// it is a finished run of this exact cell: readable, untorn (intact
// last line and a batch summary), header seed matching the cell's
// derived seed (a spec edit that reshuffles seeds invalidates stale
// journals), and the batch summary covering every trial.
func (cp *Campaign) completeStats(c Cell, path string) (CellStats, bool) {
	journal, err := os.ReadFile(path)
	if err != nil {
		return CellStats{}, false
	}
	cs, err := reduceCell(c, journal)
	if err != nil || cs.Torn {
		return cs, false
	}
	return cs, cs.Trials == cp.Spec.Trials
}

// writeArtifacts renders the reduced campaign: summary table, the
// growth table when it has a row and the epoch table when it has one,
// in text, CSV and LaTeX, plus one
// convergence-CDF plot per cell in ASCII and SVG. All emitters are
// wall-clock free, so re-rendering the same journals is byte-stable.
// The plots are written from one goroutine per processor; the first
// plot error in cell order is returned, and other cells' plots may
// already be written.
func (cp *Campaign) writeArtifacts(stats []CellStats) error {
	if err := os.MkdirAll(filepath.Join(cp.Out, "plots"), 0o755); err != nil {
		return err
	}
	if err := writeTable(filepath.Join(cp.Out, "summary"), SummaryTable(cp.Spec, stats)); err != nil {
		return err
	}
	if g := GrowthTable(cp.Spec, stats); g != nil {
		if err := writeTable(filepath.Join(cp.Out, "growth"), g); err != nil {
			return err
		}
	}
	if e := EpochTable(cp.Spec, stats); e != nil {
		if err := writeTable(filepath.Join(cp.Out, "epochs"), e); err != nil {
			return err
		}
	}
	errs := make([]error, len(stats))
	fanOut(len(stats), runtime.GOMAXPROCS(0), func(i int) {
		errs[i] = cp.writePlots(stats[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writePlots renders one cell's convergence CDF to plots/<cell>.txt
// and plots/<cell>.svg.
func (cp *Campaign) writePlots(cs CellStats) error {
	cdf := ConvergenceCDF(cs)
	base := filepath.Join(cp.Out, "plots", cs.Cell.ID())
	if err := writeFileWith(base+".txt", func(w io.Writer) error {
		cdf.RenderASCII(w, 72, 20)
		return nil
	}); err != nil {
		return err
	}
	return writeFileWith(base+".svg", func(w io.Writer) error {
		return cdf.RenderSVG(w, 640, 400)
	})
}

// writeTable renders tab to base.txt, base.csv and base.tex.
func writeTable(base string, tab *report.Table) error {
	if err := writeFileWith(base+".txt", func(w io.Writer) error {
		tab.Render(w)
		return nil
	}); err != nil {
		return err
	}
	if err := writeFileWith(base+".csv", tab.RenderCSV); err != nil {
		return err
	}
	return writeFileWith(base+".tex", tab.RenderLaTeX)
}

// writers recycles writeFileWith's buffers: a campaign writes about
// three files per cell.
var writers = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// writeFileWith renders into path atomically (temp + rename), through
// a buffer so renderers that write line by line cost one write call per
// buffer, not per line. A failure at any step removes the temp file.
func writeFileWith(path string, render func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(f)
	rerr := render(bw)
	if rerr == nil {
		rerr = bw.Flush()
	}
	bw.Reset(nil) // the pool keeps the buffer, not the file
	writers.Put(bw)
	cerr := f.Close()
	if rerr == nil {
		rerr = cerr
	}
	if rerr == nil {
		rerr = os.Rename(tmp, path)
	}
	if rerr != nil {
		os.Remove(tmp)
	}
	return rerr
}
