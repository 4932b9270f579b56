package grid

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"popnaming/internal/fault"
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

	// Torn marks a journal that lost its tail — a torn last line or no
	// batch summary — so the cell reduces from its intact records.
	Torn bool

	// Epochs is the cell's per-epoch recovery table, one entry per
	// conv group of its fault plan plus the initial convergence; nil
	// for a plan without conv groups.
	Epochs []EpochStat
}

// EpochStat is one fault epoch of a cell: epoch 0 is the initial
// convergence, epoch e >= 1 the re-convergence after the e-th conv
// group. An epoch runs from the previous boundary (a conv group's
// step) to the next; the last ends at the trial's final step count,
// quiet tail included.
type EpochStat struct {
	Epoch int
	// Trials counts the trials that measured the epoch; Failures the
	// trials that never reached it, did not re-converge, or converged
	// to an invalid naming.
	Trials   int
	Failures int
	// MedianSteps (the upper median) and MaxSteps summarize the
	// epoch's cost in interactions over the measuring trials.
	MedianSteps int64
	MaxSteps    int64
	// Steps holds the measuring trials' costs, sorted (the KS samples).
	Steps []float64
	// KS compares the epoch against the same epoch of the block's
	// baseline cell; nil for baseline cells, when the baseline plan
	// has no such epoch, and when either sample is empty.
	KS *KSResult
}

// boundary is one epoch end inside a trial: the step of a conv group
// and whether the configuration it converged to was a valid naming.
type boundary struct {
	step  int64
	valid bool
}

// KSResult is a two-sample KS comparison against the baseline cell.
type KSResult struct {
	Same        bool
	D, Critical float64
}

// columns renders the comparison as the tables' ks_same and ks_d
// cells, both empty when there is none.
func (k *KSResult) columns() (same, d string) {
	if k == nil {
		return "", ""
	}
	return strconv.FormatBool(k.Same), formatG(k.D, 6)
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
		journal, err := io.ReadAll(r)
		r.Close()
		if err == nil {
			out[i], err = reduceCell(c, journal)
		}
		if err != nil {
			return nil, fmt.Errorf("grid: reduce cell %s: %w", c.ID(), err)
		}
	}
	wireKS(out)
	return out, nil
}

// wireKS compares every fault cell in out against its block's
// baseline (the block's first fault plan), when the baseline is in out
// too: its converged steps, and each fault epoch against the
// baseline's same epoch.
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
		if !ok {
			continue
		}
		cs.KS = ksAgainst(base.ConvergedSteps, cs.ConvergedSteps)
		for e := range cs.Epochs {
			if e < len(base.Epochs) {
				cs.Epochs[e].KS = ksAgainst(base.Epochs[e].Steps, cs.Epochs[e].Steps)
			}
		}
	}
}

// ksAgainst runs the two-sample KS test of sample against base. It
// returns nil when either sample is empty (KSDistance needs both), so
// an all-aborted cell simply carries no comparison.
func ksAgainst(base, sample []float64) *KSResult {
	if len(base) == 0 || len(sample) == 0 {
		return nil
	}
	same, d, crit := stats.KSSame(base, sample, KSAlpha)
	return &KSResult{Same: same, D: d, Critical: crit}
}

// reduceCell folds one journal's bytes, decoded by obs.ScanJournal.
func reduceCell(c Cell, journal []byte) (CellStats, error) {
	return foldJournal(c, func(fn func(*obs.ScanRec) error) (bool, error) {
		return obs.ScanJournal(journal, fn)
	})
}

// trialEnd is what a trial's last summary record says: how its last
// attempt ended.
type trialEnd struct {
	converged bool
	steps     uint64
	valid     obs.Naming
}

// foldJournal folds the records scan delivers into the cell's stats;
// scan reports whether the journal was torn. Supervised trials may
// emit one summary record per attempt; the last record per trial wins,
// mirroring the batch result semantics. A cell whose plan has conv
// groups also folds its conv fault records into per-trial epoch
// boundaries: one per distinct step, since a joined group writes one
// record per member at one step, and a trial's retry record drops the
// boundaries its failed attempt left (injector records carry no
// attempt number).
func foldJournal(c Cell, scan func(func(*obs.ScanRec) error) (bool, error)) (CellStats, error) {
	cs := CellStats{Cell: c}
	perTrial := make(map[int]trialEnd)
	plan, _ := fault.Parse(c.Fault) // a bad plan already failed the cell's admission
	epochs := plan.Conv()
	var bounds map[int][]boundary
	if epochs > 0 {
		bounds = make(map[int][]boundary)
	}
	sawBatch := false
	torn, err := scan(func(rec *obs.ScanRec) error {
		switch rec.Type {
		case "header":
			if rec.Header.Seed != c.Seed {
				return fmt.Errorf("journal seed %d does not match cell seed %d", rec.Header.Seed, c.Seed)
			}
		case "summary":
			s := &rec.Summary
			perTrial[s.Trial] = trialEnd{converged: s.Converged, steps: s.Steps, valid: s.ValidNaming}
		case "batch_summary":
			sawBatch = true
			cs.Trials = rec.Batch.Trials
			cs.Converged = rec.Batch.Converged
			cs.Aborted = rec.Batch.Aborted
			cs.Retried = rec.Batch.Retried
		case "fault":
			f := &rec.Fault
			switch f.Kind {
			case "retry":
				delete(bounds, f.Trial)
			case "abort":
			default:
				cs.FaultsInjected++
				if b := bounds[f.Trial]; bounds != nil && f.Trigger == "conv" && (len(b) == 0 || b[len(b)-1].step != f.Step) {
					bounds[f.Trial] = append(b, boundary{step: f.Step, valid: f.ValidNaming != obs.NamingInvalid})
				}
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
		cs.Torn = true
		cs.Trials = len(perTrial)
		for _, s := range perTrial {
			if s.converged {
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
		if s := perTrial[t]; s.converged {
			cs.ConvergedSteps = append(cs.ConvergedSteps, float64(s.steps))
		}
	}
	cs.Steps = stats.Summarize(cs.ConvergedSteps)
	if epochs > 0 {
		cs.Epochs = epochStats(epochs, cs.Trials, perTrial, bounds)
	}
	return cs, nil
}

// epochStats measures epochs+1 epochs per trial from its boundaries
// and final summary. Epoch e ends at the trial's e-th boundary, the
// last epoch at its Steps once it converged with every group fired;
// an epoch counts unless it ended in an invalid naming. Every one of
// the cell's trials that did not measure an epoch is a failure of it.
func epochStats(epochs, trials int, perTrial map[int]trialEnd, bounds map[int][]boundary) []EpochStat {
	steps := make([][]float64, epochs+1)
	for t, s := range perTrial {
		b := bounds[t]
		prev := int64(0)
		for e := 0; e <= epochs; e++ {
			var end int64
			var valid bool
			switch {
			case e < len(b):
				end, valid = b[e].step, b[e].valid
			case e == epochs && s.converged && len(b) == epochs:
				end, valid = int64(s.steps), s.valid != obs.NamingInvalid
			default:
				continue // the trial never reached this epoch
			}
			if valid {
				steps[e] = append(steps[e], float64(end-prev))
			}
			prev = end
		}
	}
	out := make([]EpochStat, epochs+1)
	for e, st := range steps {
		slices.Sort(st)
		out[e] = EpochStat{Epoch: e, Trials: len(st), Failures: trials - len(st), Steps: st}
		if len(st) > 0 {
			out[e].MedianSteps, out[e].MaxSteps = int64(st[len(st)/2]), int64(st[len(st)-1])
		}
	}
	return out
}

// SummaryTable renders the campaign as one row per cell, in cell
// order. Every value is deterministic — no wall-clock columns — so the
// CSV/LaTeX/text renderings are byte-identical across runs and
// execution paths.
func SummaryTable(sp *Spec, results []CellStats) *report.Table {
	tab := report.NewTable(
		"campaign "+sp.Name+" (seed "+strconv.FormatInt(sp.Seed, 10)+", "+strconv.Itoa(sp.Trials)+" trials/cell)",
		"cell", "protocol", "engine", "p", "n", "sched", "init", "faults",
		"trials", "conv", "aborted", "injected",
		"steps_mean", "steps_median", "steps_p90", "ks_same", "ks_d",
	)
	for _, cs := range results {
		c := cs.Cell
		ksSame, ksD := cs.KS.columns()
		tab.AddRow(
			c.ID(), c.Protocol, c.Engine,
			strconv.Itoa(c.Pop.P), strconv.Itoa(c.Pop.N),
			c.Sched, c.Init, c.Fault,
			strconv.Itoa(cs.Trials), strconv.Itoa(cs.Converged),
			strconv.Itoa(cs.Aborted), strconv.Itoa(cs.FaultsInjected),
			formatG(cs.Steps.Mean, 6), formatG(cs.Steps.Median, 6),
			formatG(cs.Steps.P90, 6), ksSame, ksD,
		)
	}
	return tab
}

// GrowthTable fits median steps against N for every block of cells that
// differ only in population (same protocol, engine, scheduler, init and
// fault plan), one row per block with the better of an exponential and
// a power law (stats.BetterFit). Only cells with a positive median and
// an explicit N are points (a population that omits n runs at N = P,
// and its literal 0 has no logarithm), and a block needs three distinct
// N: blocks that fix N (a P sweep) or never converged get no row. It returns nil when no block
// has a row, and at once when the populations axis is too short for one.
func GrowthTable(sp *Spec, results []CellStats) *report.Table {
	if len(sp.Populations) < 3 {
		return nil
	}
	var blocks []Cell
	xs, ys := map[Cell][]float64{}, map[Cell][]float64{}
	for _, cs := range results {
		if cs.Steps.Median <= 0 || cs.Cell.Pop.N < 1 {
			continue
		}
		c := cs.Cell
		k := Cell{Protocol: c.Protocol, Engine: c.Engine, Sched: c.Sched, Init: c.Init, Fault: c.Fault, FaultIdx: c.FaultIdx}
		if xs[k] == nil {
			blocks = append(blocks, k)
		}
		xs[k] = append(xs[k], float64(c.Pop.N))
		ys[k] = append(ys[k], cs.Steps.Median)
	}
	var tab *report.Table
	for _, k := range blocks {
		distinct := map[float64]bool{}
		for _, x := range xs[k] {
			distinct[x] = true
		}
		if len(distinct) < 3 {
			continue
		}
		fit := stats.BetterFit(xs[k], ys[k])
		law := "N^" + formatG(fit.B, 3)
		if fit.Model == stats.ModelExp2 {
			law = "2^(" + formatG(fit.B, 3) + "N)"
		}
		if tab == nil {
			tab = report.NewTable("campaign "+sp.Name+": median steps vs N",
				"protocol", "engine", "sched", "init", "faults", "points", "law", "a", "b", "r2")
		}
		tab.AddRow(k.Protocol, k.Engine, k.Sched, k.Init, k.Fault,
			strconv.Itoa(len(xs[k])), law,
			formatG(fit.A, 6), formatG(fit.B, 6), strconv.FormatFloat(fit.R2, 'f', 4, 64))
	}
	return tab
}

// EpochTable lists every conv-plan cell's fault epochs, one row per
// cell and epoch, in cell order: trials that measured the epoch,
// failures, and the median and max steps it took, beside the cell's
// aborted and retried trial counts, and the epoch's KS comparison
// against the same epoch of its block's baseline cell. It returns
// nil, allocating nothing, when no cell's plan has a conv group.
func EpochTable(sp *Spec, results []CellStats) *report.Table {
	var tab *report.Table
	for _, cs := range results {
		if len(cs.Epochs) == 0 {
			continue
		}
		if tab == nil {
			tab = report.NewTable("campaign "+sp.Name+": steps per fault epoch (epoch 0 = initial convergence)",
				"protocol", "p", "n", "sched", "faults", "epoch", "trials", "failures",
				"steps_median", "steps_max", "aborted", "retried", "ks_same", "ks_d")
		}
		c := cs.Cell
		for _, e := range cs.Epochs {
			ksSame, ksD := e.KS.columns()
			tab.AddRow(c.Protocol, strconv.Itoa(c.Pop.P), strconv.Itoa(c.Pop.N), c.Sched, c.Fault,
				strconv.Itoa(e.Epoch), strconv.Itoa(e.Trials), strconv.Itoa(e.Failures),
				strconv.FormatInt(e.MedianSteps, 10), strconv.FormatInt(e.MaxSteps, 10),
				strconv.Itoa(cs.Aborted), strconv.Itoa(cs.Retried), ksSame, ksD)
		}
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
	if len(cs.ConvergedSteps) == 0 {
		return s
	}
	s.X = slices.Clone(cs.ConvergedSteps)
	slices.Sort(s.X)
	total := cs.Trials
	if total == 0 {
		total = 1
	}
	s.Y = make([]float64, len(s.X))
	for i := range s.Y {
		s.Y[i] = float64(i+1) / float64(total)
	}
	return s
}

// formatG formats v as %.<prec>g does.
func formatG(v float64, prec int) string {
	return strconv.FormatFloat(v, 'g', prec, 64)
}
