// Command ppanalyze runs a campaign grid end to end: it expands a
// declarative JSON grid spec into cells (the protocol × engine ×
// population × scheduler × init × fault product), executes every cell
// — in-process by default, or against a running ppserved node with
// -server — and reduces the per-cell journals into convergence
// summaries: summary.{csv,txt,tex}, growth.{csv,txt,tex} when a block
// of cells spans three or more N (grid.GrowthTable), epochs.{csv,txt,tex}
// when some cell's fault plan has a conv group (grid.EpochTable), plus
// per-cell convergence-CDF plots under plots/ (ASCII and SVG). The
// summary, growth and epoch tables also go to stdout. See
// docs/pipeline.md.
//
//	ppanalyze -grid examples/grids/quickstart.json -out out/
//	ppanalyze -grid sweep.json -out out/ -server http://node:8080
//	ppanalyze -grid sweep.json -out out/ -resume
//
// A grid with a non-zero seed is byte-reproducible: cell seeds derive
// from (seed, cell index), and the artifacts carry no wall-clock
// values, so re-running the grid — locally, against a server, or
// resumed — rewrites identical artifacts. -resume skips cells whose
// journals under out/journals/ are already complete; -workers bounds
// the cells that run at once, and processors beyond -workers
// (GOMAXPROCS) finish cells, writing each journal and reducing it
// while the workers run the next cells, and otherwise run trials of
// the running cells (local path only).
//
// The process exits 0 when every cell ran (or resumed) cleanly, 1 on
// cell failures (the summary still covers the successful cells) and 2
// on usage or spec errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"popnaming/internal/grid"
	"popnaming/internal/report"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		gridPath = flag.String("grid", "", "grid spec JSON file (required)")
		out      = flag.String("out", "", "campaign output directory (required)")
		server   = flag.String("server", "", "ppserved base URL; empty runs cells in-process")
		workers  = flag.Int("workers", 1, "cells to run concurrently")
		resume   = flag.Bool("resume", false, "skip cells whose journals are already complete")
		retries  = flag.Int("retries", 2, "resubmission attempts per cell in server mode (0: none)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress on stderr")
	)
	flag.Parse()
	if *gridPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: ppanalyze -grid spec.json -out dir/ [-server URL] [-workers N] [-resume]")
		flag.PrintDefaults()
		return 2
	}
	if err := checkFlags(*workers, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "ppanalyze:", err)
		return 2
	}
	f, err := os.Open(*gridPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppanalyze:", err)
		return 2
	}
	sp, err := grid.Parse(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppanalyze:", err)
		return 2
	}
	if sp.SeedDerived {
		fmt.Fprintf(os.Stderr, "ppanalyze: seed auto-derived: %d (replay with \"seed\": %d)\n", sp.Seed, sp.Seed)
	}

	var runner grid.CellRunner = grid.LocalRunner{}
	if *server != "" {
		sr := grid.NewServerRunner(*server)
		sr.Retries = *retries
		runner = sr
	}
	cp := &grid.Campaign{
		Spec:    sp,
		Runner:  runner,
		Out:     *out,
		Workers: *workers,
		Resume:  *resume,
	}
	if !*quiet {
		cp.Log = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := cp.Execute(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppanalyze:", err)
		return 2
	}
	grid.SummaryTable(sp, res.Stats).Render(os.Stdout)
	for _, tab := range []*report.Table{grid.GrowthTable(sp, res.Stats), grid.EpochTable(sp, res.Stats)} {
		if tab != nil {
			fmt.Println()
			tab.Render(os.Stdout)
		}
	}
	fmt.Fprintf(os.Stderr, "ppanalyze: %d cells: %d ran, %d resumed, %d failed; artifacts in %s\n",
		len(res.Cells), res.Ran, res.Skipped, len(res.Failed), *out)
	if len(res.Failed) > 0 {
		for _, fe := range res.Failed {
			fmt.Fprintf(os.Stderr, "ppanalyze: cell %s: %v\n", fe.Cell.ID(), fe.Err)
		}
		return 1
	}
	return 0
}

// checkFlags rejects, at flag-parse time, the values a campaign cannot
// take: at least one cell runs at a time, and a cell is resubmitted a
// non-negative number of times.
func checkFlags(workers, retries int) error {
	if workers < 1 {
		return fmt.Errorf("-workers %d: at least one cell must run at a time", workers)
	}
	if retries < 0 {
		return fmt.Errorf("-retries %d: the resubmission count cannot be negative", retries)
	}
	return nil
}
