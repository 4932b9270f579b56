package experiments_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/fault"
	"popnaming/internal/grid"
	"popnaming/internal/obs"
)

// E12, E12b, E13, E15 and E22 are the checked-in grids under
// examples/grids/paper/ (make paper renders them into
// docs/paper_output.txt). The tests below run each grid once through
// grid.Campaign and check the claims EXPERIMENTS.md quotes from that
// output.

// paperRun is one paper grid's reduced campaign: its cell stats, each
// block's medians in population order and each growth.csv row, both
// keyed "<protocol>/<sched>", the rendered growth.txt and epochs.txt
// ("" when the campaign wrote no such table), and the cells with a
// converged trial whose final configuration is not a valid naming.
type paperRun struct {
	name      string
	trials    int
	res       *grid.Result
	curve     map[string][]float64
	growth    map[string][]string
	growthTxt string
	epochsTxt string
	invalid   []string
}

var paperRuns = map[string]*paperRun{}

// paperGrid runs examples/grids/paper/<name>.json with two workers, once
// per test binary.
func paperGrid(t *testing.T, name string) *paperRun {
	t.Helper()
	if r := paperRuns[name]; r != nil {
		return r
	}
	f, err := os.Open(filepath.Join("..", "..", "examples", "grids", "paper", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := grid.Parse(f)
	f.Close()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := t.TempDir()
	cp := &grid.Campaign{Spec: sp, Runner: grid.LocalRunner{}, Out: out, Workers: 2}
	res, err := cp.Execute(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r := &paperRun{name: name, trials: sp.Trials, res: res, curve: map[string][]float64{}, growth: map[string][]string{}}
	for _, cs := range res.Stats {
		key := cs.Cell.Protocol + "/" + cs.Cell.Sched
		r.curve[key] = append(r.curve[key], cs.Steps.Median)
	}
	if data, err := os.ReadFile(filepath.Join(out, "growth.csv")); err == nil {
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[1:] { // protocol, engine, sched, init, faults, points, law, a, b, r2
			r.growth[row[0]+"/"+row[2]] = row
		}
		txt, err := os.ReadFile(filepath.Join(out, "growth.txt"))
		if err != nil {
			t.Fatal(err)
		}
		r.growthTxt = string(txt)
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if txt, err := os.ReadFile(filepath.Join(out, "epochs.txt")); err == nil {
		r.epochsTxt = string(txt)
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if bad := invalidTrials(t, cp.JournalPath(c)); bad > 0 {
			r.invalid = append(r.invalid, fmt.Sprintf("%s (%d trials)", c.ID(), bad))
		}
	}
	paperRuns[name] = r
	return r
}

// invalidTrials counts the trials of a cell journal whose last summary
// record (the final attempt's) converged without recording a valid
// naming: a fresh journal carries validNaming on every summary, so a
// missing field counts as well as a false one.
func invalidTrials(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	last := map[int]*obs.Summary{}
	if _, err := obs.ReadJournal(f, func(rec obs.Rec) error {
		if rec.Summary != nil {
			last[rec.Summary.Trial] = rec.Summary
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, s := range last {
		if s.Converged && (s.ValidNaming == nil || !*s.ValidNaming) {
			bad++
		}
	}
	return bad
}

// allConverged fails t for every failed cell of r, every cell where a
// trial did not converge, and every converged trial whose final
// configuration is not a valid naming: silence implies a valid naming
// for every protocol the paper grids run.
func allConverged(t *testing.T, r *paperRun) {
	t.Helper()
	for _, fe := range r.res.Failed {
		t.Errorf("%s: cell %s failed: %v", r.name, fe.Cell.ID(), fe.Err)
	}
	for _, cs := range r.res.Stats {
		if cs.Trials != r.trials || cs.Converged != cs.Trials {
			t.Errorf("%s: cell %s: %d/%d of %d trials converged", r.name, cs.Cell.ID(), cs.Converged, cs.Trials, r.trials)
		}
	}
	for _, cell := range r.invalid {
		t.Errorf("%s: cell %s converged to an invalid naming", r.name, cell)
	}
}

// epochsClean fails t unless every cell of r has want epochs, each
// measured by every trial, with no trial aborted or retried.
func epochsClean(t *testing.T, r *paperRun, want int) {
	t.Helper()
	for _, cs := range r.res.Stats {
		if len(cs.Epochs) != want {
			t.Errorf("%s: cell %s has %d epochs, want %d", r.name, cs.Cell.ID(), len(cs.Epochs), want)
		}
		if cs.Aborted != 0 || cs.Retried != 0 {
			t.Errorf("%s: cell %s: %d aborted, %d retried", r.name, cs.Cell.ID(), cs.Aborted, cs.Retried)
		}
		for _, e := range cs.Epochs {
			if e.Failures != 0 || e.Trials != r.trials {
				t.Errorf("%s: cell %s epoch %d: %d measured, %d failures", r.name, cs.Cell.ID(), e.Epoch, e.Trials, e.Failures)
			}
		}
	}
}

// risesWithN fails t unless the median of the block key strictly rises
// along the populations axis.
func risesWithN(t *testing.T, r *paperRun, key string) {
	t.Helper()
	c := r.curve[key]
	if len(c) < 3 {
		t.Errorf("%s/%s: %d populations, want at least 3", r.name, key, len(c))
	}
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Errorf("%s/%s medians do not rise with N: %v", r.name, key, c)
			return
		}
	}
}

// lawIs fails t unless block key of r has a growth row whose law starts
// with prefix ("N^" for a power law, "2^" for an exponential one).
func lawIs(t *testing.T, r *paperRun, key, prefix string) {
	t.Helper()
	if row := r.growth[key]; row == nil || !strings.HasPrefix(row[6], prefix) {
		t.Errorf("%s/%s growth row %v, want a %s... law", r.name, key, row, prefix)
	}
}

// TestPaperGrids runs every paper grid: every trial of every cell must
// converge to a valid naming, and E12's round-robin medians must be
// exactly the deterministic curves the reproduction has always
// reported, which pins that the grid path runs the same dynamics the
// deleted in-package sweep did.
func TestPaperGrids(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "grids", "paper", "*.json"))
	if err != nil || len(paths) != 10 {
		t.Fatalf("paper grids: %v (err %v), want 10", paths, err)
	}
	for _, path := range paths {
		allConverged(t, paperGrid(t, strings.TrimSuffix(filepath.Base(path), ".json")))
	}
	poly := paperGrid(t, "e12-poly")
	for key, want := range map[string][]float64{
		"asym/roundrobin":       {65, 73, 305, 1249, 5057, 20353},
		"initleader/roundrobin": {66, 68, 264, 1040, 4128, 16447},
	} {
		if fmt.Sprint(poly.curve[key]) != fmt.Sprint(want) {
			t.Errorf("e12-poly/%s medians %v, want %v", key, poly.curve[key], want)
		}
	}
}

// TestSweepShapes: E12's convergence cost rises strictly with N for
// every protocol and scheduler it sweeps, with no failed trial.
func TestSweepShapes(t *testing.T) {
	for name, keys := range map[string][]string{
		"e12-poly": {"asym/roundrobin", "asym/random", "initleader/roundrobin", "initleader/random"},
		"e12-exp":  {"selfstab/random", "globalp/random", "symglobal/random"},
	} {
		r := paperGrid(t, name)
		allConverged(t, r)
		for _, key := range keys {
			risesWithN(t, r, key)
		}
	}
}

// TestGrowthFitDetectsExponential: the U*-based protocols' fitted cost
// is exponential in N, in E12 and at N = P (E12b), with selfstab's
// doubling-rate slope near 1.
func TestGrowthFitDetectsExponential(t *testing.T) {
	exp := paperGrid(t, "e12-exp")
	for _, key := range []string{"selfstab/random", "globalp/random", "symglobal/random"} {
		lawIs(t, exp, key, "2^")
	}
	lawIs(t, paperGrid(t, "e12b"), "globalp/random", "2^")
	if row := exp.growth["selfstab/random"]; row != nil {
		if b, err := strconv.ParseFloat(row[8], 64); err != nil || b < 0.5 || b > 2 {
			t.Errorf("selfstab doubling slope %q outside [0.5, 2]", row[8])
		}
	}
}

// TestGrowthFitDetectsPolynomial: the asymmetric and initialized-leader
// protocols' fitted cost is a power law in N under both schedulers.
func TestGrowthFitDetectsPolynomial(t *testing.T) {
	poly := paperGrid(t, "e12-poly")
	for _, key := range []string{"asym/roundrobin", "asym/random", "initleader/roundrobin", "initleader/random"} {
		lawIs(t, poly, key, "N^")
	}
}

// TestRenderSweepsIncludesFits: the campaigns that sweep N render their
// growth fits as a text table next to the summary, one law per block;
// the P sweeps of E15 fix N and render none.
func TestRenderSweepsIncludesFits(t *testing.T) {
	for _, name := range []string{"e12-poly", "e12-exp", "e12b"} {
		r := paperGrid(t, name)
		if want := "campaign " + name + ": median steps vs N"; !strings.Contains(r.growthTxt, want) {
			t.Errorf("%s growth.txt missing %q:\n%s", name, want, r.growthTxt)
		}
		for key, row := range r.growth {
			if !strings.Contains(r.growthTxt, row[6]) {
				t.Errorf("%s growth.txt missing %s's law %s:\n%s", name, key, row[6], r.growthTxt)
			}
		}
	}
	for _, name := range []string{"e15-symglobal", "e15-globalp"} {
		if r := paperGrid(t, name); r.growthTxt != "" {
			t.Errorf("%s fixes N but rendered a growth table:\n%s", name, r.growthTxt)
		}
	}
}

// TestFullPopulationCost: E12b, globalp at N = P, converges on every
// trial and its cost rises strictly with N.
func TestFullPopulationCost(t *testing.T) {
	r := paperGrid(t, "e12b")
	allConverged(t, r)
	risesWithN(t, r, "globalp/random")
}

// TestSlackReducesCost: E15's populations run P = N, N+1, ...; the tight
// instance costs more than 100x one state of slack for globalp and more
// than 2x for symglobal, with no failed trial.
func TestSlackReducesCost(t *testing.T) {
	for name, factor := range map[string]float64{
		"e15-globalp":   100,
		"e15-symglobal": 2,
	} {
		r := paperGrid(t, name)
		allConverged(t, r)
		key := strings.TrimPrefix(name, "e15-") + "/random"
		if c := r.curve[key]; len(c) < 2 || c[0] <= factor*c[1] {
			t.Errorf("%s/%s: P=N median not %gx the P=N+1 median: %v", name, key, factor, c)
		}
	}
}

// TestStabilizeAllRegistry: the two E22 grids cover every
// arbitrary-init protocol of the registry, and every cell survives
// three conv-triggered corruptions: four epochs, each measured by every
// trial, with nothing aborted or retried.
func TestStabilizeAllRegistry(t *testing.T) {
	covered := map[string]bool{}
	for _, name := range []string{"e22", "e22-reboot"} {
		r := paperGrid(t, name)
		allConverged(t, r)
		epochsClean(t, r, 4)
		for _, cs := range r.res.Stats {
			covered[cs.Cell.Protocol] = true
		}
	}
	for _, key := range experiments.RegistryKeys() {
		spec, err := experiments.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := spec.New(6).(core.ArbitraryInitProtocol); ok && !covered[key] {
			t.Errorf("arbitrary-init protocol %s is in neither E22 grid", key)
		}
	}
}

// TestStabilizeDeterministic: an E22 epoch table is a pure function of
// the grid's seed — a second run renders it byte for byte.
func TestStabilizeDeterministic(t *testing.T) {
	first := paperGrid(t, "e22-reboot").epochsTxt
	delete(paperRuns, "e22-reboot")
	if again := paperGrid(t, "e22-reboot").epochsTxt; first == "" || again != first {
		t.Errorf("e22-reboot epoch table differs across runs:\n%s\n---\n%s", first, again)
	}
}

// TestStabilizePlanString pins the E22 plans: three conv groups each,
// the leader reboot joined to the corruption where the leader must be
// initialized, in canonical form.
func TestStabilizePlanString(t *testing.T) {
	for name, want := range map[string]string{
		"e22":        "@conv:corrupt=2,@conv:corrupt=2,@conv:corrupt=2",
		"e22-reboot": "@conv:reboot=1+corrupt=2,@conv:reboot=1+corrupt=2,@conv:reboot=1+corrupt=2",
	} {
		f, err := os.Open(filepath.Join("..", "..", "examples", "grids", "paper", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := grid.Parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Faults) != 1 {
			t.Fatalf("%s: faults axis %q, want one plan", name, sp.Faults)
		}
		plan, err := fault.Parse(sp.Faults[0])
		if err != nil {
			t.Fatal(err)
		}
		if plan.Conv() != 3 || plan.String() != want {
			t.Errorf("%s: plan %q with %d conv groups, want %q with 3", name, plan, plan.Conv(), want)
		}
	}
}

// TestRecoverySmall: E13 recovers from every corruption size k = 1…N
// for all three self-stabilizing protocols — no epoch fails. Every
// k = 2…8 cell is compared against k = 1, the first cell of its block:
// its total steps (initial convergence plus recovery) read KS-same,
// and its recovery epoch (epoch 1) carries its own KS comparison in
// the epoch table, the flatness test EXPERIMENTS.md quotes.
func TestRecoverySmall(t *testing.T) {
	for _, name := range []string{"e13-asym", "e13-symglobal", "e13-selfstab"} {
		r := paperGrid(t, name)
		allConverged(t, r)
		epochsClean(t, r, 2)
		if len(r.res.Stats) != 8 {
			t.Errorf("%s: %d cells, want k = 1..8", name, len(r.res.Stats))
		}
		for _, cs := range r.res.Stats {
			if cs.Cell.FaultIdx == 0 || len(cs.Epochs) != 2 {
				continue
			}
			if cs.KS == nil || !cs.KS.Same {
				t.Errorf("%s: cell %s (%s): total steps not KS-same as k = 1's: %+v", name, cs.Cell.ID(), cs.Cell.Fault, cs.KS)
			}
			if cs.Epochs[1].KS == nil {
				t.Errorf("%s: cell %s (%s): recovery epoch not compared with k = 1's", name, cs.Cell.ID(), cs.Cell.Fault)
			}
		}
	}
}

// TestRenderRecovery: the E13 campaigns render their epoch table as
// text, a row per corruption size and epoch.
func TestRenderRecovery(t *testing.T) {
	r := paperGrid(t, "e13-selfstab")
	if want := "campaign e13-selfstab: steps per fault epoch"; !strings.Contains(r.epochsTxt, want) {
		t.Errorf("epochs.txt missing %q:\n%s", want, r.epochsTxt)
	}
	for _, cs := range r.res.Stats {
		if !strings.Contains(r.epochsTxt, cs.Cell.Fault+" ") {
			t.Errorf("epochs.txt has no row for %s:\n%s", cs.Cell.Fault, r.epochsTxt)
		}
	}
}
