package grid

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
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

// TestExecuteReduceError pins the campaign-level failure: the first
// journal in cell order that does not reduce fails Execute, whichever
// cell finished first, and no artifact is written.
func TestExecuteReduceError(t *testing.T) {
	dir := t.TempDir()
	sp := parse(t, e2eSpec)
	cells := sp.Cells()
	cp := &Campaign{Spec: sp, Runner: badSeedRunner{bad: map[int]bool{2: true, 5: true}}, Out: dir, Workers: 2}
	res, err := cp.Execute(context.Background())
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
}
