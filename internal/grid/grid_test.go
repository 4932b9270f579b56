package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popnaming/internal/obs"
	"popnaming/internal/report"
	"popnaming/internal/serve"
	"popnaming/internal/stats"
)

func parse(t *testing.T, src string) *Spec {
	t.Helper()
	sp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return sp
}

const minimalSpec = `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"seed":3}`

func TestParseDefaults(t *testing.T) {
	sp := parse(t, minimalSpec)
	if sp.Name != "campaign" || sp.Trials != 10 || sp.Workers != 1 {
		t.Errorf("defaults not filled: %+v", sp)
	}
	wantAxes := [][2]string{
		{sp.Engines[0], "agent"}, {sp.Scheds[0], "random"},
		{sp.Inits[0], "zero"}, {sp.Faults[0], ""},
	}
	for _, a := range wantAxes {
		if a[0] != a[1] {
			t.Errorf("axis default = %q, want %q", a[0], a[1])
		}
	}
	if sp.Seed != 3 || sp.SeedDerived {
		t.Errorf("seed = %d derived=%t", sp.Seed, sp.SeedDerived)
	}
}

func TestParseStrict(t *testing.T) {
	bad := []string{
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"protocls":["x"]}`, // typoed axis
		`{"protocols":["asym"],"populations":[{"p":6,"q":4}]}`,                  // typoed pop field
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}]} {"x":1}`,          // trailing object
		`{"populations":[{"p":6,"n":4}]}`,                                       // no protocols
		`{"protocols":["asym"]}`,                                                // no populations
		`{"protocols":["asym","asym"],"populations":[{"p":6,"n":4}]}`,           // dup axis value
		`{"protocols":["asym"],"populations":[{"p":6,"n":4},{"p":6,"n":4}]}`,    // dup population
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"trials":-1}`,
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse accepted %s", src)
		}
	}
}

// TestParseRejectsTrailingBracket: a stray closing bracket after the
// spec object is trailing data like any other, while trailing
// whitespace is not.
func TestParseRejectsTrailingBracket(t *testing.T) {
	const src = `{"protocols":["asym"],"populations":[{"p":6,"n":4}]}`
	for _, tail := range []string{"]", "}"} {
		if _, err := Parse(strings.NewReader(src + tail)); err == nil || !strings.HasPrefix(err.Error(), "grid: ") {
			t.Errorf("Parse(%s) = %v, want a grid: error", src+tail, err)
		}
	}
	if _, err := Parse(strings.NewReader(src + "\n")); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}

// TestDuplicateAxisNamesFirstAxis: a spec with duplicates in several
// axes is rejected naming the first of them in declaration order, on
// every parse.
func TestDuplicateAxisNamesFirstAxis(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`{"protocols":["asym","asym"],"scheds":["random","random"],"populations":[{"p":6,"n":4}]}`, "protocols axis"},
		{`{"protocols":["asym"],"engines":["agent","agent"],"inits":["zero","zero"],"populations":[{"p":6,"n":4}]}`, "engines axis"},
		{`{"protocols":["asym"],"scheds":["random","random"],"faults":["",""],"populations":[{"p":6,"n":4}]}`, "scheds axis"},
	} {
		for i := 0; i < 20; i++ {
			if _, err := Parse(strings.NewReader(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Parse(%s) = %v, want the %s named", c.src, err, c.want)
			}
		}
	}
}

func TestParseDerivesSeedOnce(t *testing.T) {
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}]}`)
	if sp.Seed == 0 || !sp.SeedDerived {
		t.Fatalf("seed not derived: %d", sp.Seed)
	}
	// The resolved seed is baked into the spec: expansion is now
	// deterministic even though the seed came from the clock. Each
	// expansion admits its cells anew, so the jobs are compared by their
	// admitted specs.
	a, b := sp.Cells(), sp.Cells()
	for i := range a {
		if a[i].ID() != b[i].ID() || a[i].Seed != b[i].Seed || a[i].job.Spec() != b[i].job.Spec() {
			t.Fatalf("expansion unstable at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCellsExpansion(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym","selfstab"],
		"populations":[{"p":6,"n":4},{"p":6,"n":6}],
		"faults":["","@100:corrupt=2"],
		"seed":7}`)
	cells := sp.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Fault axis is innermost: consecutive pairs share a block and the
	// even one is the baseline.
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.FaultIdx != i%2 {
			t.Errorf("cell %d FaultIdx = %d", i, c.FaultIdx)
		}
		if c.BaselineIndex() != i-i%2 {
			t.Errorf("cell %d baseline = %d", i, c.BaselineIndex())
		}
		if c.Seed == 0 {
			t.Errorf("cell %d has seed 0", i)
		}
	}
	if cells[0].Protocol != "asym" || cells[7].Protocol != "selfstab" {
		t.Errorf("protocol order wrong: %s .. %s", cells[0].Protocol, cells[7].Protocol)
	}
	// Seeds are pairwise distinct (splitmix over distinct indexes).
	seen := map[int64]int{}
	for i, c := range cells {
		if j, dup := seen[c.Seed]; dup {
			t.Errorf("cells %d and %d share seed %d", j, i, c.Seed)
		}
		seen[c.Seed] = i
	}

	// Admission is idempotent: a cell's admitted spec, which
	// ServerRunner posts, admits to itself, so the node derives the
	// cache key of the cell's job.
	for _, c := range parse(t, smallGrid).Cells() {
		if c.job == nil {
			t.Fatalf("cell %s not admitted: %v", c.ID(), c.err)
		}
		again, err := serve.Prepare(c.job.Spec())
		if err != nil {
			t.Fatalf("cell %s: admitted spec refused: %v", c.ID(), err)
		}
		if again.Spec() != c.job.Spec() {
			t.Errorf("cell %s: admitted spec %+v re-admits to %+v", c.ID(), c.job.Spec(), again.Spec())
		}
	}
}

func TestCellID(t *testing.T) {
	sp := parse(t, `{"protocols":["selfstab"],"populations":[{"p":6,"n":4}],"faults":["","@100:corrupt=2"],"seed":1}`)
	cells := sp.Cells()
	want := []string{"selfstab-agent-p6n4-random-zero-f0", "selfstab-agent-p6n4-random-zero-f1"}
	for i, c := range cells {
		if c.ID() != want[i] {
			t.Errorf("ID = %q, want %q", c.ID(), want[i])
		}
		// A cell built by hand formats the same ID.
		byHand := Cell{Protocol: c.Protocol, Engine: c.Engine, Pop: c.Pop, Sched: c.Sched, Init: c.Init, FaultIdx: c.FaultIdx}
		if byHand.ID() != want[i] {
			t.Errorf("hand-built ID = %q, want %q", byHand.ID(), want[i])
		}
	}
}

func TestValidateRejectsBadCells(t *testing.T) {
	for _, src := range []string{
		`{"protocols":["nosuch"],"populations":[{"p":6,"n":4}],"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":9}],"seed":1}`, // n > p on agent engine
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"faults":["@oops"],"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"faults":["@1:corrupt=1"],"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":4}],"engines":["count"],"retries":2,"seed":1}`,
		`{"protocols":["asym"],"populations":[{"p":6,"n":3}],"scheds":["matching"],"seed":1}`, // odd n under matching
	} {
		sp := parse(t, src)
		err := sp.Validate()
		if err == nil {
			t.Errorf("Validate accepted %s", src)
			continue
		}
		// The refused cells carry their refusal and no job.
		for _, c := range sp.Cells() {
			if (c.err == nil) == (c.job == nil) {
				t.Errorf("%s: cell %s has job %v and refusal %v, want exactly one", src, c.ID(), c.job, c.err)
			}
			if c.err != nil && !strings.Contains(err.Error(), c.err.Error()) {
				t.Errorf("%s: Validate's error %q does not name cell %s's refusal %q", src, err, c.ID(), c.err)
			}
		}
		// Execute refuses the grid with the same error before it
		// creates a directory.
		dir := filepath.Join(t.TempDir(), "out")
		cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: dir}
		if _, xerr := cp.Execute(context.Background()); xerr == nil || xerr.Error() != err.Error() {
			t.Errorf("%s: Execute error %v, want Validate's %v", src, xerr, err)
		}
		if _, serr := os.Stat(filepath.Join(dir, "journals")); !os.IsNotExist(serr) {
			t.Errorf("%s: Execute of a refused grid made its journals directory (stat: %v)", src, serr)
		}
	}
	if err := parse(t, minimalSpec).Validate(); err != nil {
		t.Errorf("Validate rejected minimal spec: %v", err)
	}
}

// runCellBuf executes one cell through LocalRunner into a buffer.
func runCellBuf(t *testing.T, sp *Spec, c Cell) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (LocalRunner{}).RunCell(context.Background(), sp, c, &buf); err != nil {
		t.Fatalf("RunCell(%s): %v", c.ID(), err)
	}
	return buf.Bytes()
}

func TestReduceLocalCells(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym"],
		"populations":[{"p":6,"n":4}],
		"faults":["","@50:corrupt=2"],
		"trials":3,"budget":200000,"seed":11}`)
	cells := sp.Cells()
	journals := make(map[int][]byte, len(cells))
	for _, c := range cells {
		journals[c.Index] = runCellBuf(t, sp, c)
	}
	res, err := Reduce(sp, cells, func(c Cell) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(journals[c.Index])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	base, faulted := res[0], res[1]
	if base.Trials != 3 || base.Converged != 3 {
		t.Errorf("baseline: %d/%d converged", base.Converged, base.Trials)
	}
	if len(base.ConvergedSteps) != 3 || base.Steps.Count != 3 {
		t.Errorf("baseline steps: %+v", base.Steps)
	}
	if base.KS != nil {
		t.Error("baseline cell carries a KS result")
	}
	if base.FaultsInjected != 0 {
		t.Errorf("baseline injected %d faults", base.FaultsInjected)
	}
	if faulted.FaultsInjected == 0 {
		t.Error("faulted cell injected no faults")
	}
	if faulted.Converged > 0 && faulted.KS == nil {
		t.Error("faulted cell with converged trials has no KS result")
	}
}

// A cell where no trial converges reduces to the zero Summary and no
// KS comparison — the empty-sample guards in stats at work.
func TestReduceAllUnconverged(t *testing.T) {
	sp := parse(t, `{
		"protocols":["asym"],
		"populations":[{"p":6,"n":4}],
		"faults":["","@1:corrupt=2"],
		"trials":2,"budget":1,"seed":5}`)
	cells := sp.Cells()
	journals := make(map[int][]byte, len(cells))
	for _, c := range cells {
		journals[c.Index] = runCellBuf(t, sp, c)
	}
	res, err := Reduce(sp, cells, func(c Cell) (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(journals[c.Index])), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range res {
		if cs.Converged != 0 || cs.Steps.Count != 0 || cs.Steps.Mean != 0 {
			t.Errorf("cell %s: %+v", cs.Cell.ID(), cs.Steps)
		}
		if cs.KS != nil {
			t.Errorf("cell %s has KS on empty samples", cs.Cell.ID())
		}
		out := SummaryTable(sp, res).String()
		if strings.Contains(out, "NaN") {
			t.Fatalf("NaN leaked into summary table:\n%s", out)
		}
	}
}

// TestLocalRunnerDeterministic runs each cell twice and pins the
// SHA-256 of its canonical journal (obs.Canonical), so a change to any record
// either engine emits — not just nondeterminism within one build — fails
// here.
func TestLocalRunnerDeterministic(t *testing.T) {
	for _, c := range []struct {
		name, spec, sha256 string
	}{
		{"agent-zero", `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"trials":2,"budget":100000,"seed":9}`,
			"ad3925e8dac0cc46aa6646a40d484cb78be2ba72c702e933add9f063a9eac0bd"},
		{"agent-arbitrary-corrupt", `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"inits":["arbitrary"],"faults":["@100:corrupt=2"],"trials":2,"budget":100000,"seed":9}`,
			"4e3d1f003f2783d634d09dd215f0632b6cc44daff9dad8c9d995eac5ca2ce641"},
		{"count-1e4", `{"protocols":["asym"],"engines":["count"],"populations":[{"p":6,"n":10000}],"trials":2,"budget":100000,"progressEvery":40000,"seed":9}`,
			"92c10fd65e112955f9e22b9c93fc5870b23d829d9bfdd409f8ff9c6631d5056e"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := parse(t, c.spec)
			cell := sp.Cells()[0]
			a := obs.Canonical(runCellBuf(t, sp, cell))
			b := obs.Canonical(runCellBuf(t, sp, cell))
			if !bytes.Equal(a, b) {
				t.Fatalf("same cell produced different journals:\n%s\n---\n%s", a, b)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != c.sha256 {
				t.Errorf("journal sha256 %s, pinned %s:\n%s", got, c.sha256, a)
			}
		})
	}
}

func TestConvergenceCDF(t *testing.T) {
	cs := CellStats{
		Cell:           Cell{Protocol: "asym", Engine: "agent", Pop: Pop{P: 6, N: 4}, Sched: "random", Init: "zero"},
		Trials:         4,
		Converged:      3,
		ConvergedSteps: []float64{300, 100, 200},
	}
	s := ConvergenceCDF(cs)
	if len(s.X) != 3 || s.X[0] != 100 || s.X[2] != 300 {
		t.Errorf("CDF x not sorted: %v", s.X)
	}
	// One trial never converged: the CDF tops out at 3/4.
	if s.Y[2] != 0.75 {
		t.Errorf("CDF top = %v, want 0.75", s.Y[2])
	}
}

// TestGrowthTable fits one row per block of cells that differ only in
// population, and gives no row to a block a fit cannot use: one that
// never converged, or one that fixes N (a P sweep, whose abscissae
// would make the regression divide by zero). A population that omits n
// is no point, and a grid with fewer than three populations costs no
// allocation and writes no growth files.
func TestGrowthTable(t *testing.T) {
	withMedians := func(sp *Spec, median func(c Cell) float64) []CellStats {
		var out []CellStats
		for _, c := range sp.Cells() {
			out = append(out, CellStats{Cell: c, Steps: stats.Summary{Median: median(c)}})
		}
		return out
	}
	sp := parse(t, `{"protocols":["asym","selfstab","naive"],"populations":[{"p":16,"n":2},{"p":16,"n":4},{"p":16,"n":8},{"p":16,"n":16}],"seed":1}`)
	tab := GrowthTable(sp, withMedians(sp, func(c Cell) float64 {
		n := float64(c.Pop.N)
		switch c.Protocol {
		case "asym":
			return 3 * n * n
		case "selfstab":
			return 5 * math.Exp2(n)
		}
		return 0 // naive: no trial converged
	}))
	csvOf := func(tab *report.Table) string {
		if tab == nil {
			return "<nil>"
		}
		var b strings.Builder
		if err := tab.RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const header = "protocol,engine,sched,init,faults,points,law,a,b,r2\n"
	want := header +
		"asym,agent,random,zero,,4,N^2,3,2,1.0000\n" +
		"selfstab,agent,random,zero,,4,2^(1N),5,1,1.0000\n"
	if got := csvOf(tab); got != want {
		t.Errorf("growth CSV:\n%s\nwant:\n%s", got, want)
	}

	// A population that omits n runs at N = P; its literal N = 0 is no
	// point of a log-log fit, and must not reach one.
	implicitN := parse(t, `{"protocols":["asym"],"populations":[{"p":8},{"p":8,"n":2},{"p":8,"n":4},{"p":8,"n":8}],"seed":1}`)
	tab = GrowthTable(implicitN, withMedians(implicitN, func(c Cell) float64 {
		if c.Pop.N == 0 {
			return 50
		}
		return float64(10 * c.Pop.N * c.Pop.N)
	}))
	if got, want := csvOf(tab), header+"asym,agent,random,zero,,3,N^2,10,2,1.0000\n"; got != want {
		t.Errorf("growth CSV over the three explicit N:\n%s\nwant:\n%s", got, want)
	}

	oneN := parse(t, `{"protocols":["globalp"],"populations":[{"p":4,"n":4},{"p":5,"n":4},{"p":6,"n":4}],"seed":1}`)
	if tab := GrowthTable(oneN, withMedians(oneN, func(c Cell) float64 { return float64(100 * c.Pop.P) })); tab != nil {
		t.Errorf("a block with one N got a row:\n%s", tab)
	}

	two := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":2},{"p":6,"n":4}],"trials":2,"seed":3}`)
	twoStats := withMedians(two, func(c Cell) float64 { return float64(c.Pop.N) })
	if allocs := testing.AllocsPerRun(10, func() { GrowthTable(two, twoStats) }); allocs != 0 {
		t.Errorf("GrowthTable over two populations allocated %v times", allocs)
	}
	dir := t.TempDir()
	cp := &Campaign{Spec: two, Runner: LocalRunner{}, Out: dir}
	if _, err := cp.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "summary.csv")); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".txt", ".csv", ".tex"} {
		if _, err := os.Stat(filepath.Join(dir, "growth"+ext)); !os.IsNotExist(err) {
			t.Errorf("two-population campaign wrote growth%s (stat: %v)", ext, err)
		}
	}
}

// FuzzGridSpec holds the grid spec boundary to its contract: any input
// either fails Parse or Validate with an error, or expands to cells with
// pairwise distinct IDs (an ID names the cell's journal file), and none
// panics. Products over 64 cells are skipped to bound Validate's cost.
// The seeds are the specs shipped under examples/grids/.
func FuzzGridSpec(f *testing.F) {
	for _, pattern := range []string{"*.json", filepath.Join("paper", "*.json")} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "grids", pattern))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		cells := 1
		for _, n := range []int{len(sp.Protocols), len(sp.Engines), len(sp.Populations), len(sp.Scheds), len(sp.Inits), len(sp.Faults)} {
			if cells *= n; cells > 64 {
				t.Skip("product over 64 cells")
			}
		}
		if err := sp.Validate(); err != nil {
			return
		}
		seen := make(map[string]bool)
		for _, c := range sp.Cells() {
			if seen[c.ID()] {
				t.Fatalf("two cells share ID %s", c.ID())
			}
			seen[c.ID()] = true
		}
	})
}
