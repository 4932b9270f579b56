package grid

import (
	"fmt"
	"io"
	"sort"

	"popnaming/internal/obs"
	"popnaming/internal/report"
	"popnaming/internal/stats"
)

// KSAlpha is the significance level of the fault-vs-baseline
// Kolmogorov–Smirnov comparison, matching the stabilization
// experiments' distribution-equality tests.
const KSAlpha = 1e-3

// CellStats is one cell's journal folded into convergence statistics.
type CellStats struct {
	Cell Cell

	// Trials/Converged/Aborted come from the batch_summary record;
	// Retried counts supervision retries (agent engine only).
	Trials    int
	Converged int
	Aborted   int
	Retried   int

	// FaultsInjected counts injected fault records (supervision
	// records — kinds "retry"/"abort" — excluded).
	FaultsInjected int

	// Steps summarizes steps-to-convergence over the converged trials;
	// the zero Summary for a cell where nothing converged.
	Steps stats.Summary

	// ConvergedSteps holds the converged trials' step counts in trial
	// order (the KS samples and CDF plot input).
	ConvergedSteps []float64

	// KS is the comparison against the cell's no-fault baseline; nil
	// for baseline cells and when either sample is empty.
	KS *KSResult

	// Torn marks a journal with a torn tail (the cell still reduces
	// from its intact records).
	Torn bool
}

// KSResult is a two-sample KS comparison against the baseline cell.
type KSResult struct {
	Same        bool
	D, Critical float64
}

// JournalOpener yields a reader for one cell's journal. Reduce uses it
// to stay storage-agnostic (files in a campaign directory, buffers in
// tests).
type JournalOpener func(c Cell) (io.ReadCloser, error)

// Reduce folds every cell's journal into CellStats and wires the
// fault-axis KS comparisons. Journals are read with torn-tail
// tolerance; a missing or unreadable journal fails the reduction (a
// campaign that wants to tolerate failed cells filters them first).
func Reduce(sp *Spec, cells []Cell, open JournalOpener) ([]CellStats, error) {
	out := make([]CellStats, len(cells))
	for i, c := range cells {
		r, err := open(c)
		if err != nil {
			return nil, fmt.Errorf("grid: open journal for cell %s: %w", c.ID(), err)
		}
		cs, err := reduceCell(c, r)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("grid: reduce cell %s: %w", c.ID(), err)
		}
		out[i] = cs
	}
	wireKS(out)
	return out, nil
}

// wireKS compares every fault cell in out against its block's no-fault
// baseline, when the baseline is in out too. KSDistance needs
// non-empty samples; an all-aborted cell simply carries no comparison.
func wireKS(out []CellStats) {
	byIndex := make(map[int]*CellStats, len(out))
	for i := range out {
		byIndex[out[i].Cell.Index] = &out[i]
	}
	for i := range out {
		cs := &out[i]
		if cs.Cell.FaultIdx == 0 {
			continue
		}
		base, ok := byIndex[cs.Cell.BaselineIndex()]
		if !ok || len(base.ConvergedSteps) == 0 || len(cs.ConvergedSteps) == 0 {
			continue
		}
		same, d, crit := stats.KSSame(base.ConvergedSteps, cs.ConvergedSteps, KSAlpha)
		cs.KS = &KSResult{Same: same, D: d, Critical: crit}
	}
}

// reduceCell folds one journal. Supervised trials may emit one summary
// record per attempt; the last record per trial wins, mirroring the
// batch result semantics.
func reduceCell(c Cell, r io.Reader) (CellStats, error) {
	cs := CellStats{Cell: c}
	perTrial := make(map[int]*obs.Summary)
	sawBatch := false
	torn, err := obs.ReadJournal(r, func(rec obs.Rec) error {
		switch rec.Type {
		case "header":
			if rec.Header.Seed != c.Seed {
				return fmt.Errorf("journal seed %d does not match cell seed %d", rec.Header.Seed, c.Seed)
			}
		case "summary":
			s := *rec.Summary
			perTrial[s.Trial] = &s
		case "batch_summary":
			sawBatch = true
			cs.Trials = rec.Batch.Trials
			cs.Converged = rec.Batch.Converged
			cs.Aborted = rec.Batch.Aborted
			cs.Retried = rec.Batch.Retried
		case "fault":
			switch rec.Fault.Kind {
			case "retry", "abort":
			default:
				cs.FaultsInjected++
			}
		}
		return nil
	})
	if err != nil {
		return cs, err
	}
	cs.Torn = torn
	if !sawBatch {
		// A journal cut before its batch summary: count what the
		// intact records show.
		cs.Trials = len(perTrial)
		for _, s := range perTrial {
			if s.Converged {
				cs.Converged++
			}
		}
	}
	trials := make([]int, 0, len(perTrial))
	for t := range perTrial {
		trials = append(trials, t)
	}
	sort.Ints(trials)
	for _, t := range trials {
		if s := perTrial[t]; s.Converged {
			cs.ConvergedSteps = append(cs.ConvergedSteps, float64(s.Steps))
		}
	}
	cs.Steps = stats.Summarize(cs.ConvergedSteps)
	return cs, nil
}

// SummaryTable renders the campaign as one row per cell, in cell
// order. Every value is deterministic — no wall-clock columns — so the
// CSV/LaTeX/text renderings are byte-identical across runs and
// execution paths.
func SummaryTable(sp *Spec, results []CellStats) *report.Table {
	tab := report.NewTable(
		fmt.Sprintf("campaign %s (seed %d, %d trials/cell)", sp.Name, sp.Seed, sp.Trials),
		"cell", "protocol", "engine", "p", "n", "sched", "init", "faults",
		"trials", "conv", "aborted", "injected",
		"steps_mean", "steps_median", "steps_p90", "ks_same", "ks_d",
	)
	for _, cs := range results {
		c := cs.Cell
		ksSame, ksD := "", ""
		if cs.KS != nil {
			ksSame = fmt.Sprintf("%t", cs.KS.Same)
			ksD = fmt.Sprintf("%.6g", cs.KS.D)
		}
		tab.AddRow(
			c.ID(), c.Protocol, c.Engine,
			fmt.Sprintf("%d", c.Pop.P), fmt.Sprintf("%d", c.Pop.N),
			c.Sched, c.Init, c.Fault,
			fmt.Sprintf("%d", cs.Trials), fmt.Sprintf("%d", cs.Converged),
			fmt.Sprintf("%d", cs.Aborted), fmt.Sprintf("%d", cs.FaultsInjected),
			fmt.Sprintf("%.6g", cs.Steps.Mean), fmt.Sprintf("%.6g", cs.Steps.Median),
			fmt.Sprintf("%.6g", cs.Steps.P90), ksSame, ksD,
		)
	}
	return tab
}

// ConvergenceCDF builds the cell's empirical CDF of steps to
// convergence: x the sorted converged step counts, y the fraction of
// all trials (not just converged ones) at or below x — a cell where
// half the trials never converge tops out at 0.5.
func ConvergenceCDF(cs CellStats) *report.Series {
	s := &report.Series{
		Name:   cs.Cell.ID(),
		XLabel: "steps",
		YLabel: "fraction of trials converged",
	}
	steps := append([]float64(nil), cs.ConvergedSteps...)
	sort.Float64s(steps)
	total := cs.Trials
	if total == 0 {
		total = 1
	}
	for i, x := range steps {
		s.Add(x, float64(i+1)/float64(total))
	}
	return s
}
