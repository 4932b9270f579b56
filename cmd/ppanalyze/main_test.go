package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popnaming/internal/grid"
)

// TestQuickstartGrid exercises the shipped starter spec end to end:
// it must parse strictly, validate against the service admission path,
// expand to the documented 8 cells, and run to completion with every
// artifact in place — so the example in docs/pipeline.md never rots.
func TestQuickstartGrid(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "grids", "quickstart.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := grid.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Name != "quickstart" || sp.Seed != 42 || sp.SeedDerived {
		t.Fatalf("spec not read faithfully: %+v", sp)
	}
	cells := sp.Cells()
	if len(cells) != 8 {
		t.Fatalf("quickstart expands to %d cells, want 8 (2 protocols x 2 populations x 2 fault plans)", len(cells))
	}
	out := t.TempDir()
	cp := &grid.Campaign{Spec: sp, Runner: grid.LocalRunner{}, Out: out, Workers: 2}
	res, err := cp.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) > 0 || res.Ran != 8 {
		t.Fatalf("ran %d, failed %v", res.Ran, res.Failed)
	}
	for _, p := range []string{"summary.csv", "summary.tex", "summary.txt",
		filepath.Join("plots", cells[0].ID()+".svg"),
		filepath.Join("journals", cells[7].ID()+".jsonl")} {
		if _, err := os.Stat(filepath.Join(out, p)); err != nil {
			t.Errorf("missing output: %v", err)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		workers, retries int
		want             string // "" accepts; else the flag the error names
	}{
		{1, 2, ""},
		{4, 0, ""},
		{0, 2, "-workers 0"},
		{-1, 2, "-workers -1"},
		{1, -1, "-retries -1"},
	} {
		err := checkFlags(c.workers, c.retries)
		if c.want == "" {
			if err != nil {
				t.Errorf("checkFlags(workers=%d, retries=%d) = %v, want accepted", c.workers, c.retries, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("checkFlags(workers=%d, retries=%d) = %v, want an error naming %s", c.workers, c.retries, err, c.want)
		}
	}
}
