// Package grid turns one declarative campaign spec into a reproducible
// sweep over the protocol/engine/population/scheduler/init/fault
// product, runs every cell locally or against a ppserved node, and
// reduces the per-cell journals into convergence summaries, tables and
// plots (the ppanalyze pipeline).
//
// Reproducibility contract: a spec with a non-zero seed is
// byte-reproducible — cell seeds derive from (grid seed, cell index)
// with the batch seed recipe's splitmix derivation, a cell's journal is
// in trial order at any worker count, and every artifact emitter is
// wall-clock free — so two executions of the same grid, local or
// remote, produce identical CSV/LaTeX/plot artifacts.
package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/sim"
)

// Pop is one population point of the sweep: state-space bound P and
// population size N.
type Pop struct {
	P int `json:"p"`
	N int `json:"n"`
}

// Spec is the campaign grid: axes that multiply into cells, plus
// scalar knobs shared by every cell. JSON decoding is strict — unknown
// fields are rejected so a typoed axis never silently collapses a
// sweep.
type Spec struct {
	// Name labels the campaign in artifacts.
	Name string `json:"name"`

	// Axes. Protocols and Populations are required; the rest default
	// to one-element axes (agent engine, random scheduler, zero init,
	// no faults).
	Protocols   []string `json:"protocols"`
	Engines     []string `json:"engines,omitempty"`
	Populations []Pop    `json:"populations"`
	Scheds      []string `json:"scheds,omitempty"`
	Inits       []string `json:"inits,omitempty"`
	Faults      []string `json:"faults,omitempty"`

	// Shared cell knobs, mirroring the v1 job schema. Trials defaults
	// to 10; Budget 0 selects the service default; Workers is the
	// per-cell trial parallelism and defaults to 1 (journals are in
	// trial order at any worker count).
	Trials        int   `json:"trials,omitempty"`
	Budget        int   `json:"budget,omitempty"`
	Workers       int   `json:"workers,omitempty"`
	Stall         int   `json:"stall,omitempty"`
	Retries       int   `json:"retries,omitempty"`
	DeadlineMS    int64 `json:"deadlineMs,omitempty"`
	ProgressEvery int   `json:"progressEvery,omitempty"`

	// Seed is the campaign master seed; 0 derives one from the clock
	// (resolved exactly once, at Parse, and recorded so the run stays
	// replayable). SeedDerived reports which happened.
	Seed        int64 `json:"seed,omitempty"`
	SeedDerived bool  `json:"-"`
}

// Parse decodes a grid spec from JSON, rejecting unknown fields,
// filling defaults and resolving the master seed once.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("grid: trailing data after spec object")
	}
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// normalize fills defaults, resolves the seed and validates the axes'
// shape. Per-cell semantic validation (protocol names, fault grammar,
// engine capability) is the service admission path's, which Cells runs
// each cell through, so grid and server reject identically.
func (sp *Spec) normalize() error {
	if sp.Name == "" {
		sp.Name = "campaign"
	}
	if len(sp.Engines) == 0 {
		sp.Engines = []string{"agent"}
	}
	if len(sp.Scheds) == 0 {
		sp.Scheds = []string{"random"}
	}
	if len(sp.Inits) == 0 {
		sp.Inits = []string{"zero"}
	}
	if len(sp.Faults) == 0 {
		sp.Faults = []string{""}
	}
	if sp.Trials == 0 {
		sp.Trials = 10
	}
	if sp.Workers == 0 {
		sp.Workers = 1
	}
	if len(sp.Protocols) == 0 {
		return fmt.Errorf("grid: protocols axis is empty")
	}
	if len(sp.Populations) == 0 {
		return fmt.Errorf("grid: populations axis is empty")
	}
	if sp.Trials < 1 {
		return fmt.Errorf("grid: trials %d < 1", sp.Trials)
	}
	// Axes are checked in declaration order, so the first duplicated
	// axis is the one named.
	for _, ax := range []struct {
		name string
		vals []string
	}{
		{"protocols", sp.Protocols}, {"engines", sp.Engines},
		{"scheds", sp.Scheds}, {"inits", sp.Inits}, {"faults", sp.Faults},
	} {
		seen := make(map[string]bool, len(ax.vals))
		for _, v := range ax.vals {
			if seen[v] {
				return fmt.Errorf("grid: duplicate %q in %s axis", v, ax.name)
			}
			seen[v] = true
		}
	}
	seenPop := make(map[Pop]bool, len(sp.Populations))
	for _, p := range sp.Populations {
		if seenPop[p] {
			return fmt.Errorf("grid: duplicate population {p:%d,n:%d}", p.P, p.N)
		}
		seenPop[p] = true
	}
	sp.Seed, sp.SeedDerived = obs.ResolveSeed(sp.Seed)
	return nil
}

// Cell is one point of the expanded grid. Index is its position in
// expansion order — the stable identity that seeds the cell and names
// its fault baseline.
type Cell struct {
	Index    int
	Protocol string
	Engine   string
	Pop      Pop
	Sched    string
	Init     string
	Fault    string
	// FaultIdx is the cell's position on the fault axis; the fault
	// axis is innermost, so Index-FaultIdx is always the cell's
	// no-fault baseline within its block (KS comparisons key off it).
	FaultIdx int
	// Seed is the cell's job seed, derived from the master seed and
	// Index with the batch recipe's splitmix derivation. It is never 0:
	// the job schema treats 0 as "derive from the clock", which would
	// break replay.
	Seed int64
	// job is the cell's admitted batch job, or err why admission
	// refused it. Cells sets one; no runner runs a cell without a job.
	job *serve.Prepared
	err error
	// id is the cell's ID as Cells formats it once; empty in a cell
	// built by hand, whose ID is formatted on each call.
	id string
}

// Cells expands the grid in fixed axis order (protocols, engines,
// populations, scheds, inits, faults — faults innermost), derives each
// cell's seed and admits each cell's batch job once, through the
// service's own admission (serve.Prepare). The expansion is a pure
// function of the spec, so equal specs yield cells with equal axes,
// seeds and admitted specs.
func (sp *Spec) Cells() []Cell {
	var cells []Cell
	idx := 0
	for _, proto := range sp.Protocols {
		for _, eng := range sp.Engines {
			for _, pop := range sp.Populations {
				for _, sc := range sp.Scheds {
					for _, in := range sp.Inits {
						for fi, f := range sp.Faults {
							seed := sim.DeriveSeed(sp.Seed, idx, 0)
							if seed == 0 {
								seed = 1
							}
							c := Cell{
								Index:    idx,
								Protocol: proto,
								Engine:   eng,
								Pop:      pop,
								Sched:    sc,
								Init:     in,
								Fault:    f,
								FaultIdx: fi,
								Seed:     seed,
							}
							c.id = c.slug()
							c.job, c.err = serve.Prepare(sp.jobSpec(c))
							cells = append(cells, c)
							idx++
						}
					}
				}
			}
		}
	}
	return cells
}

// ID is the cell's stable slug, used for journal and plot filenames:
// <protocol>-<engine>-p<P>n<N>-<sched>-<init>-f<K>. The fault plan
// itself appears by axis position (f0, f1, ...) — plan strings contain
// characters hostile to filenames.
func (c Cell) ID() string {
	if c.id != "" {
		return c.id
	}
	return c.slug()
}

// slug formats the cell's ID.
func (c Cell) slug() string {
	b := make([]byte, 0, 64)
	b = append(append(append(b, c.Protocol...), '-'), c.Engine...)
	b = strconv.AppendInt(append(b, "-p"...), int64(c.Pop.P), 10)
	b = strconv.AppendInt(append(b, 'n'), int64(c.Pop.N), 10)
	b = append(append(append(b, '-'), c.Sched...), '-')
	b = append(append(b, c.Init...), "-f"...)
	return string(strconv.AppendInt(b, int64(c.FaultIdx), 10))
}

// BaselineIndex is the index of the cell's no-fault baseline (itself,
// for fault-free cells).
func (c Cell) BaselineIndex() int { return c.Index - c.FaultIdx }

// admitted returns the cell's admitted job, or why it has none.
func (c Cell) admitted() (*serve.Prepared, error) {
	switch {
	case c.job != nil:
		return c.job, nil
	case c.err != nil:
		return nil, fmt.Errorf("cell %s: %w", c.ID(), c.err)
	default:
		return nil, fmt.Errorf("cell %s: not admitted (cells come from Spec.Cells)", c.ID())
	}
}

// jobSpec renders the cell as the v1 batch job spec Cells admits.
func (sp *Spec) jobSpec(c Cell) serve.Spec {
	engine := c.Engine
	if engine == "agent" {
		engine = "" // the schema's default; keeps cache keys canonical
	}
	return serve.Spec{
		Kind:          serve.KindBatch,
		Protocol:      c.Protocol,
		P:             c.Pop.P,
		N:             c.Pop.N,
		Sched:         c.Sched,
		Init:          c.Init,
		Engine:        engine,
		Seed:          c.Seed,
		Budget:        sp.Budget,
		Trials:        sp.Trials,
		Workers:       sp.Workers,
		Faults:        c.Fault,
		DeadlineMS:    sp.DeadlineMS,
		Retries:       sp.Retries,
		Stall:         sp.Stall,
		ProgressEvery: sp.ProgressEvery,
	}
}

// Validate reports the cells admission refused (unknown protocol, fault
// grammar error, count-incompatible combo), so a bad cell fails the
// whole grid up front — in server mode too, before any job is submitted.
func (sp *Spec) Validate() error { return refused(sp.Cells()) }

// refused is Validate's error over cells, nil when none was refused.
func refused(cells []Cell) error {
	var errs []string
	for _, c := range cells {
		if c.err != nil {
			errs = append(errs, fmt.Sprintf("cell %s: %v", c.ID(), c.err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("grid: %d invalid cell(s):\n  %s", len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}
