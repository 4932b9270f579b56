package grid

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Campaign executes a grid spec into an output directory:
// out/journals/<cell>.jsonl per cell, then the reduced artifacts
// out/summary.{csv,txt,tex} and out/plots/<cell>.{txt,svg}.
type Campaign struct {
	Spec   *Spec
	Runner CellRunner
	// Out is the campaign directory; created if absent.
	Out string
	// Workers bounds concurrently running cells (default 1 — cells
	// are internally sequential for determinism, so campaign-level
	// fan-out is the parallelism knob).
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

func (cp *Campaign) logf(format string, args ...any) {
	if cp.Log != nil {
		fmt.Fprintf(cp.Log, format+"\n", args...)
	}
}

// Execute runs every cell (respecting Resume), reduces the journals
// and writes the artifacts. Cell failures don't stop the campaign:
// remaining cells run, the failures come back in Result.Failed, and
// reduction covers the successful cells only — err is reserved for
// campaign-level failures (bad spec, unwritable directory, a journal
// that does not reduce).
//
// Each cell is reduced as it finishes, from the journal bytes it just
// wrote, so every worker holds one journal in memory at a time.
func (cp *Campaign) Execute(ctx context.Context) (*Result, error) {
	if err := cp.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cp.Out, "journals"), 0o755); err != nil {
		return nil, err
	}
	cells := cp.Spec.Cells()
	res := &Result{Cells: cells}
	outs := make([]cellOutcome, len(cells))
	workers := cp.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var journal bytes.Buffer // reused from cell to cell
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) {
					return
				}
				c := cells[i]
				out := cp.runOne(ctx, c, &journal)
				mu.Lock()
				outs[i] = out
				switch {
				case out.err != nil:
					cp.logf("cell %s: FAILED: %v", c.ID(), out.err)
				case out.ran:
					res.Ran++
					cp.logf("cell %s: done", c.ID())
				default:
					res.Skipped++
					cp.logf("cell %s: resumed (journal complete)", c.ID())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
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

// cellOutcome is one cell's result inside Execute.
type cellOutcome struct {
	stats     CellStats
	ran       bool  // false when resumed from a complete journal
	err       error // the cell failed; it goes to Result.Failed
	reduceErr error // the journal did not reduce; the campaign fails
}

// runOne executes one cell into journal and then into its journal
// path, atomically: the bytes go to a temp file renamed into place only
// after the runner finishes cleanly, so a crashed or failed cell never
// leaves a plausible-looking journal behind (at worst a *.tmp). The
// cell is reduced from the same bytes, not read back from the file.
func (cp *Campaign) runOne(ctx context.Context, c Cell, journal *bytes.Buffer) cellOutcome {
	path := cp.JournalPath(c)
	if cp.Resume {
		if cs, ok := cp.completeStats(c, path); ok {
			return cellOutcome{stats: cs}
		}
	}
	journal.Reset()
	if err := cp.Runner.RunCell(ctx, cp.Spec, c, journal); err != nil {
		return cellOutcome{err: err}
	}
	if err := writeFileWith(path, func(w io.Writer) error {
		_, err := w.Write(journal.Bytes())
		return err
	}); err != nil {
		return cellOutcome{err: err}
	}
	cs, err := reduceCell(c, bytes.NewReader(journal.Bytes()))
	return cellOutcome{stats: cs, ran: true, reduceErr: err}
}

// completeStats reduces the cell's journal on disk and reports whether
// it is a finished run of this exact cell: readable, untorn, header
// seed matching the cell's derived seed (a spec edit that reshuffles
// seeds invalidates stale journals), and a batch summary covering
// every trial.
func (cp *Campaign) completeStats(c Cell, path string) (CellStats, bool) {
	f, err := os.Open(path)
	if err != nil {
		return CellStats{}, false
	}
	defer f.Close()
	cs, err := reduceCell(c, f)
	if err != nil || cs.Torn {
		return cs, false
	}
	return cs, cs.Trials == cp.Spec.Trials
}

// writeArtifacts renders the reduced campaign: summary table in text,
// CSV and LaTeX, plus one convergence-CDF plot per cell in ASCII and
// SVG. All emitters are wall-clock free, so re-rendering the same
// journals is byte-stable.
func (cp *Campaign) writeArtifacts(stats []CellStats) error {
	if err := os.MkdirAll(filepath.Join(cp.Out, "plots"), 0o755); err != nil {
		return err
	}
	tab := SummaryTable(cp.Spec, stats)
	if err := writeFileWith(filepath.Join(cp.Out, "summary.txt"), func(w io.Writer) error {
		tab.Render(w)
		return nil
	}); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(cp.Out, "summary.csv"), tab.RenderCSV); err != nil {
		return err
	}
	if err := writeFileWith(filepath.Join(cp.Out, "summary.tex"), tab.RenderLaTeX); err != nil {
		return err
	}
	for _, cs := range stats {
		cdf := ConvergenceCDF(cs)
		id := cs.Cell.ID()
		if err := writeFileWith(filepath.Join(cp.Out, "plots", id+".txt"), func(w io.Writer) error {
			cdf.RenderASCII(w, 72, 20)
			return nil
		}); err != nil {
			return err
		}
		if err := writeFileWith(filepath.Join(cp.Out, "plots", id+".svg"), func(w io.Writer) error {
			return cdf.RenderSVG(w, 640, 400)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFileWith renders into path atomically (temp + rename), through
// a buffer so renderers that write line by line cost one write call per
// buffer, not per line.
func writeFileWith(path string, render func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	rerr := render(bw)
	if rerr == nil {
		rerr = bw.Flush()
	}
	cerr := f.Close()
	if rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		os.Remove(tmp)
		return rerr
	}
	return os.Rename(tmp, path)
}
