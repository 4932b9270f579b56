package experiments

import (
	"io"

	"popnaming/internal/obs"
)

// SuiteEntry is one runnable experiment of the reproduction suite: its
// CLI selector, its index in DESIGN.md's experiment list, a one-line
// description, its field in the -json document, and how to run and
// render it. The cmd/experiments binary drives, times, renders and
// journals the suite through this registry alone.
type SuiteEntry struct {
	// Key is the CLI selector.
	Key string
	// Tag is the experiment index (E1, E12b, ...).
	Tag string
	// Description is a one-line summary.
	Description string
	// JSON names the entry's result in the -json document.
	JSON string
	// Run runs the experiment, returning its result and whether its
	// checks passed.
	Run func(SuiteOptions) (any, bool)
	// Render prints a result Run returned as a table.
	Render func(io.Writer, any)
}

// SuiteOptions carries the CLI's flags into the suite's runs.
type SuiteOptions struct {
	Seed int64
	// P, ModelCheckP, Budget and Workers size Table 1 (see
	// Table1Options).
	P, ModelCheckP, Budget, Workers int
	// Sink, when non-nil, receives Table 1's per-cell records.
	Sink obs.Sink
}

// suiteEntry builds an entry from a typed run and render pair.
func suiteEntry[T any](key, tag, desc, json string, run func(SuiteOptions) (T, bool), render func(io.Writer, T)) SuiteEntry {
	return SuiteEntry{
		Key: key, Tag: tag, Description: desc, JSON: json,
		Run:    func(o SuiteOptions) (any, bool) { return run(o) },
		Render: func(w io.Writer, v any) { render(w, v.(T)) },
	}
}

// Suite lists every experiment in suite run order.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		suiteEntry("table1", "E1", "Table 1 feasibility/state-space matrix", "table1", suiteTable1, RenderTable1),
		suiteEntry("ablation", "E14", "U* vs naive sequence", "ustarAblation",
			func(SuiteOptions) (AblationResult, bool) { return UStarAblation(3), true }, RenderAblation),
		suiteEntry("separation", "E11", "weak vs global fairness on Protocol 3", "fairnessSeparation",
			func(o SuiteOptions) (SeparationResult, bool) { return FairnessSeparation(3, o.Seed), true }, RenderSeparation),
		suiteEntry("resetablation", "E16", "Protocol 2 without its reset line", "resetAblation",
			func(SuiteOptions) (ResetAblationResult, bool) { return ResetAblation(2), true }, RenderResetAblation),
		suiteEntry("exact", "E17", "exact expected convergence times", "exactTimes",
			func(SuiteOptions) ([]ExactPoint, bool) { return ExactTimes(), true }, RenderExact),
		suiteEntry("thm11", "E18", "Theorem 11 beyond model-checkable sizes", "thm11Scaling",
			func(o SuiteOptions) ([]Thm11Point, bool) { return Thm11Scaling(6, 500_000, o.Seed), true }, RenderThm11),
		suiteEntry("trajectory", "E19", "convergence trajectories", "trajectories",
			func(o SuiteOptions) ([]Trajectory, bool) { return StandardTrajectories(o.Seed), true }, RenderTrajectories),
		suiteEntry("distribution", "E20", "exact convergence-time distributions", "distributions",
			func(o SuiteOptions) ([]DistPoint, bool) { return Distributions(2000, o.Seed), true }, RenderDistributions),
		suiteEntry("oracle", "E21", "constructive proof schedules", "oracleSchedules",
			func(o SuiteOptions) ([]OraclePoint, bool) { return OracleSchedules(o.Seed), true }, RenderOracle),
	}
}

// suiteTable1 reproduces Table 1, journaling each cell's record as it
// completes; it passes when every cell agrees with the paper.
func suiteTable1(o SuiteOptions) ([]Cell, bool) {
	cells := Table1(Table1Options{
		P: o.P, ModelCheckP: o.ModelCheckP, Budget: o.Budget, Seed: o.Seed, Workers: o.Workers,
		OnCell: func(_ int, c Cell) {
			if o.Sink != nil {
				o.Sink.Emit(c.Record())
			}
		},
	})
	ok := true
	for _, c := range cells {
		ok = ok && c.OK
	}
	return cells, ok
}

// SuiteKeys returns the experiment selectors in suite run order.
func SuiteKeys() []string {
	entries := Suite()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// SuiteLookup resolves a CLI experiment selector.
func SuiteLookup(key string) (SuiteEntry, bool) {
	for _, e := range Suite() {
		if e.Key == key {
			return e, true
		}
	}
	return SuiteEntry{}, false
}
