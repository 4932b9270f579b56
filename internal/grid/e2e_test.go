package grid

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
)

// e2eSpec is the acceptance grid: 2 protocols x 2 populations x
// 2 fault plans = 8 cells.
const e2eSpec = `{
	"name":"e2e",
	"protocols":["asym","selfstab"],
	"populations":[{"p":6,"n":4},{"p":6,"n":6}],
	"faults":["","@100:corrupt=2"],
	"trials":4,"budget":300000,"seed":7}`

// runCampaign executes the e2e grid into dir with the given runner.
func runCampaign(t *testing.T, runner CellRunner, dir string, resume bool) *Result {
	t.Helper()
	sp := parse(t, e2eSpec)
	cp := &Campaign{Spec: sp, Runner: runner, Out: dir, Workers: 2, Resume: resume}
	res, err := cp.Execute(context.Background())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	for _, f := range res.Failed {
		t.Errorf("cell %s failed: %v", f.Cell.ID(), f.Err)
	}
	return res
}

// artifactFiles lists the campaign's artifact paths relative to its
// directory (journals excluded — those carry wall-clock fields).
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	var rel []string
	for _, sub := range []string{"", "plots"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			rel = append(rel, filepath.Join(sub, e.Name()))
		}
	}
	return rel
}

// assertArtifactsEqual compares every artifact of two campaign
// directories byte-for-byte.
func assertArtifactsEqual(t *testing.T, a, b string) {
	t.Helper()
	fa, fb := artifactFiles(t, a), artifactFiles(t, b)
	if len(fa) != len(fb) {
		t.Fatalf("artifact sets differ: %v vs %v", fa, fb)
	}
	for _, f := range fa {
		ba, err := os.ReadFile(filepath.Join(a, f))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(ba) != string(bb) {
			t.Errorf("artifact %s differs between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				f, a, b, a, ba, b, bb)
		}
	}
}

// startServer boots an in-process ppserved over httptest.
func startServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// cacheHits scrapes ppserved_cache_hits_total from the Prometheus
// exposition.
func cacheHits(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ppserved_cache_hits_total (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("no cache-hit metric in exposition:\n%s", body)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCampaignE2E is the pipeline acceptance test: the same grid runs
// locally, against a live ppserved, and as a resumed re-run, and every
// artifact (CSV, LaTeX, text table, ASCII and SVG plots) is
// byte-identical across all paths. The server's second pass is served
// from its result cache.
func TestCampaignE2E(t *testing.T) {
	localDir := filepath.Join(t.TempDir(), "local")
	res := runCampaign(t, LocalRunner{}, localDir, false)
	if res.Ran != 8 || res.Skipped != 0 {
		t.Fatalf("local: ran %d skipped %d, want 8/0", res.Ran, res.Skipped)
	}
	if len(res.Stats) != 8 {
		t.Fatalf("local: %d cell stats", len(res.Stats))
	}
	conv := 0
	for _, cs := range res.Stats {
		conv += cs.Converged
	}
	if conv == 0 {
		t.Fatal("no trial converged anywhere; the grid is not exercising the reducer")
	}
	for _, f := range []string{"summary.csv", "summary.tex", "summary.txt"} {
		if _, err := os.Stat(filepath.Join(localDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	for _, cs := range res.Stats {
		for _, ext := range []string{".txt", ".svg"} {
			if _, err := os.Stat(filepath.Join(localDir, "plots", cs.Cell.ID()+ext)); err != nil {
				t.Errorf("missing plot: %v", err)
			}
		}
	}

	// Resume: a second local pass skips every cell and re-renders the
	// same artifacts.
	res2 := runCampaign(t, LocalRunner{}, localDir, true)
	if res2.Ran != 0 || res2.Skipped != 8 {
		t.Fatalf("resume: ran %d skipped %d, want 0/8", res2.Ran, res2.Skipped)
	}

	// Partial resume: a deleted journal and a torn one re-run; the
	// rest stay skipped.
	cells := parse(t, e2eSpec).Cells()
	cp := &Campaign{Spec: parse(t, e2eSpec), Out: localDir}
	if err := os.Remove(cp.JournalPath(cells[0])); err != nil {
		t.Fatal(err)
	}
	tornPath := cp.JournalPath(cells[1])
	full, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, full[:len(full)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	res3 := runCampaign(t, LocalRunner{}, localDir, true)
	if res3.Ran != 2 || res3.Skipped != 6 {
		t.Fatalf("partial resume: ran %d skipped %d, want 2/6", res3.Ran, res3.Skipped)
	}

	// Server path: same grid through a live ppserved over the v1 job
	// API. Artifacts must match the local run byte-for-byte.
	_, ts := startServer(t)
	serverDir := filepath.Join(t.TempDir(), "server")
	sr := NewServerRunner(ts.URL)
	sr.Backoff = time.Millisecond
	resS := runCampaign(t, sr, serverDir, false)
	if resS.Ran != 8 {
		t.Fatalf("server: ran %d, want 8", resS.Ran)
	}
	assertArtifactsEqual(t, localDir, serverDir)

	// Server re-run into a fresh directory: every cell resubmits the
	// identical spec, so the node answers from its content-addressed
	// result cache without re-simulating.
	before := cacheHits(t, ts.URL)
	serverDir2 := filepath.Join(t.TempDir(), "server2")
	runCampaign(t, sr, serverDir2, false)
	if hits := cacheHits(t, ts.URL) - before; hits != 8 {
		t.Errorf("second server pass: %d cache hits, want 8", hits)
	}
	assertArtifactsEqual(t, serverDir, serverDir2)
}

// TestServerRunnerRetries: Retries counts resubmissions after the
// first attempt, so a runner with Retries 0 posts a failing cell once,
// and one built by NewServerRunner posts it three times (two retries).
// A hand-built cell, which Spec.Cells did not admit, fails with no
// POST at all, as it fails LocalRunner without running.
func TestServerRunnerRetries(t *testing.T) {
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":4,"n":4}],"trials":1,"seed":3}`)
	admitted := sp.Cells()[0]
	hand := Cell{Protocol: "asym", Engine: "agent", Pop: Pop{P: 4, N: 4}, Sched: "random", Init: "zero", Seed: admitted.Seed}
	var buf bytes.Buffer
	if err := (LocalRunner{}).RunCell(context.Background(), sp, hand, &buf); err == nil || buf.Len() != 0 {
		t.Errorf("LocalRunner ran a hand-built cell: err %v, %d journal bytes", err, buf.Len())
	}
	for _, tc := range []struct {
		c              Cell
		retries, posts int
	}{{admitted, 0, 1}, {admitted, 2, 3}, {hand, 2, 0}} {
		var mu sync.Mutex
		posts := 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				mu.Lock()
				posts++
				mu.Unlock()
			}
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		sr := NewServerRunner(ts.URL)
		sr.Retries, sr.Backoff = tc.retries, time.Millisecond
		err := sr.RunCell(context.Background(), sp, tc.c, io.Discard)
		ts.Close()
		if err == nil {
			t.Fatalf("Retries %d: a peer answering 500 ran the cell", tc.retries)
		}
		if posts != tc.posts {
			t.Errorf("Retries %d, cell admitted %t: %d POSTs, want %d", tc.retries, tc.c.job != nil, posts, tc.posts)
		}
	}
}

// TestResumeRerunsJournalWithoutBatchSummary: a journal cut at a line
// boundary just before its batch summary is intact line by line but not
// complete, so -resume re-runs the cell instead of keeping the counts
// its per-trial records show.
func TestResumeRerunsJournalWithoutBatchSummary(t *testing.T) {
	sp := parse(t, `{"protocols":["asym"],"populations":[{"p":6,"n":4}],"trials":3,"seed":5}`)
	cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: t.TempDir()}
	if _, err := cp.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := cp.JournalPath(sp.Cells()[0])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(full), `{"v":1,"type":"batch_summary"`)
	if cut < 0 {
		t.Fatalf("journal has no batch summary:\n%s", full)
	}
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	cp.Resume = true
	res, err := cp.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ran != 1 || res.Skipped != 0 {
		t.Fatalf("resume over a journal without its batch summary: ran %d skipped %d, want 1/0", res.Ran, res.Skipped)
	}
}

// badSeedRunner runs cells locally, except that the cells in bad get a
// journal whose header seed is not theirs, which does not reduce.
type badSeedRunner struct{ bad map[int]bool }

func (r badSeedRunner) RunCell(ctx context.Context, sp *Spec, c Cell, w io.Writer) error {
	if !r.bad[c.Index] {
		return LocalRunner{}.RunCell(ctx, sp, c, w)
	}
	hdr := obs.NewHeader(Tool)
	hdr.Seed = c.Seed + 1
	return obs.NewJournalSink(w).Emit(hdr)
}

// withProcs runs f at GOMAXPROCS procs (procs < 1 leaves it as it is)
// and restores the setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestExecuteReduceError pins the campaign-level failure: the first
// journal in cell order that does not reduce fails Execute, whichever
// cell finished first and whether a worker or a finisher reduced it,
// and no artifact is written.
func TestExecuteReduceError(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, procs int
	}{
		{"workers", 2, 0},
		{"handoff", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sp := parse(t, e2eSpec)
			cells := sp.Cells()
			cp := &Campaign{Spec: sp, Runner: badSeedRunner{bad: map[int]bool{2: true, 5: true}}, Out: dir, Workers: tc.workers}
			var res *Result
			var err error
			withProcs(tc.procs, func() { res, err = cp.Execute(context.Background()) })
			if err == nil {
				t.Fatal("Execute succeeded over a journal that does not reduce")
			}
			if want := "reduce cell " + cells[2].ID() + ":"; !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to name %s", err, want)
			}
			if res == nil || res.Ran != len(cells) || res.Stats != nil {
				t.Errorf("result = %+v, want every cell ran and no stats", res)
			}
			if _, err := os.Stat(cp.JournalPath(cells[5])); err != nil {
				t.Errorf("journal of a cell that does not reduce: %v", err)
			}
			for _, f := range []string{"summary.csv", "summary.txt", "summary.tex", "plots"} {
				if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
					t.Errorf("artifact %s written after a reduce error (stat: %v)", f, err)
				}
			}
		})
	}
}

// procsSpec runs e2eSpec's protocols and populations from arbitrary
// starts, with and without a conv plan, so a campaign writes every
// artifact, the epoch table included.
const procsSpec = `{
	"name":"procs",
	"protocols":["asym","selfstab"],
	"populations":[{"p":6,"n":4},{"p":6,"n":6}],
	"inits":["arbitrary"],
	"faults":["","@conv:corrupt=2"],
	"trials":4,"budget":300000,"seed":7}`

// procsCountSpec runs procsSpec's protocols on the count engine at
// N > P, where no trial converges and each runs its whole budget, with
// census records and three trials per cell for helpers to join.
const procsCountSpec = `{
	"name":"procs-count",
	"protocols":["asym","selfstab"],
	"engines":["count"],
	"populations":[{"p":8,"n":1000},{"p":8,"n":5000}],
	"trials":3,"budget":200000,"progressEvery":50000,"seed":7}`

// TestExecuteAcrossProcessors: the same grid at every mix of cell
// workers and processors (no helper, one helper finishing cells and
// joining batches, more workers than processors) writes the same
// journals and artifacts and reports the same counts as one worker on
// one processor, on either engine.
func TestExecuteAcrossProcessors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   string
		epochs bool // the grid writes an epoch table
	}{
		{"agent", procsSpec, true},
		{"count", procsCountSpec, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := parse(t, tc.spec)
			run := func(workers, procs int) (*Campaign, *Result) {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("w%d-p%d", workers, procs))
				cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: dir, Workers: workers}
				var res *Result
				var err error
				withProcs(procs, func() { res, err = cp.Execute(context.Background()) })
				if err != nil {
					t.Fatalf("workers %d, GOMAXPROCS %d: %v", workers, procs, err)
				}
				return cp, res
			}
			base, want := run(1, 1)
			if want.Ran != len(want.Cells) || len(want.Failed) != 0 {
				t.Fatalf("ran %d of %d cells, %d failed", want.Ran, len(want.Cells), len(want.Failed))
			}
			if _, err := os.Stat(filepath.Join(base.Out, "epochs.csv")); tc.epochs && err != nil {
				t.Fatalf("no epoch table: %v", err)
			}
			for _, wp := range [][2]int{{1, 2}, {2, 2}, {3, 2}} {
				cp, res := run(wp[0], wp[1])
				if res.Ran != want.Ran || res.Skipped != want.Skipped || len(res.Failed) != len(want.Failed) {
					t.Errorf("workers %d, GOMAXPROCS %d: ran %d, skipped %d, failed %d; want %d, %d, %d",
						wp[0], wp[1], res.Ran, res.Skipped, len(res.Failed), want.Ran, want.Skipped, len(want.Failed))
				}
				assertArtifactsEqual(t, base.Out, cp.Out)
				for _, c := range res.Cells {
					a, err := os.ReadFile(base.JournalPath(c))
					if err != nil {
						t.Fatal(err)
					}
					b, err := os.ReadFile(cp.JournalPath(c))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(obs.Canonical(a), obs.Canonical(b)) {
						t.Errorf("workers %d, GOMAXPROCS %d: journal of %s differs", wp[0], wp[1], c.ID())
					}
				}
			}
		})
	}
}

// TestExecuteJournalRenameError: a directory squatting on a cell's
// journal path fails that cell's rename, and only that cell fails,
// whether its worker or a finisher wrote its journal, and leaves no
// temp file behind; every other cell runs, reduces and gets its
// artifacts. Which cells a finisher takes depends on timing, so several
// cells are squatted.
func TestExecuteJournalRenameError(t *testing.T) {
	sp := parse(t, e2eSpec)
	cells := sp.Cells()
	squat := map[int]bool{0: true, 1: true, 3: true, 4: true, 6: true}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: t.TempDir(), Workers: 1}
			for i := range squat {
				if err := os.MkdirAll(cp.JournalPath(cells[i]), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			var res *Result
			var err error
			withProcs(procs, func() { res, err = cp.Execute(context.Background()) })
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failed {
				var le *os.LinkError
				if !squat[f.Cell.Index] || !errors.As(f.Err, &le) || le.Op != "rename" || le.New != cp.JournalPath(f.Cell) {
					t.Errorf("cell %s failed with %v; want only squatted cells, each with its rename error", f.Cell.ID(), f.Err)
				}
			}
			if len(res.Failed) != len(squat) {
				t.Errorf("%d cells failed, want the %d squatted", len(res.Failed), len(squat))
			}
			if want := len(cells) - len(squat); res.Ran != want || len(res.Stats) != want {
				t.Errorf("ran %d cells and reduced %d, want %d", res.Ran, len(res.Stats), want)
			}
			for _, cs := range res.Stats {
				if squat[cs.Cell.Index] {
					t.Errorf("squatted cell %s reduced", cs.Cell.ID())
				}
			}
			tmps, err := filepath.Glob(filepath.Join(cp.Out, "journals", "*.tmp"))
			if err != nil || len(tmps) > 0 {
				t.Errorf("failed renames left temp files %v (glob err %v)", tmps, err)
			}
			summary, err := os.ReadFile(filepath.Join(cp.Out, "summary.csv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				row := strings.Contains(string(summary), "\n"+c.ID()+",")
				_, txtErr := os.Stat(filepath.Join(cp.Out, "plots", c.ID()+".txt"))
				_, svgErr := os.Stat(filepath.Join(cp.Out, "plots", c.ID()+".svg"))
				if want := !squat[c.Index]; row != want || (txtErr == nil) != want || (svgErr == nil) != want {
					t.Errorf("cell %s: summary row %v, plots %v and %v; want artifacts %v", c.ID(), row, txtErr, svgErr, want)
				}
			}
		})
	}
}

// TestExecutePlotError: plots are written in parallel, and the error
// Execute returns is that of the first cell in cell order whose plot
// could not be written, whichever failed first.
func TestExecutePlotError(t *testing.T) {
	sp := parse(t, e2eSpec)
	cells := sp.Cells()
	cp := &Campaign{Spec: sp, Runner: LocalRunner{}, Out: t.TempDir(), Workers: 1}
	first := filepath.Join(cp.Out, "plots", cells[2].ID()+".svg")
	for _, p := range []string{filepath.Join(cp.Out, "plots", cells[6].ID()+".txt"), first} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	withProcs(2, func() { _, err = cp.Execute(context.Background()) })
	var le *os.LinkError
	if !errors.As(err, &le) || le.Op != "rename" || le.New != first {
		t.Errorf("err = %v, want the rename error of %s", err, first)
	}
}
