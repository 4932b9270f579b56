package main

import (
	"strconv"
	"strings"
	"testing"

	"popnaming/internal/experiments"
)

// TestCheckFlags: the sizes the protocol constructors cannot take are
// rejected with the flag named, instead of panicking inside run.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		p, n int
		want string // "" accepts; else the flag the error names
	}{
		{3, 0, ""},
		{3, 3, ""},
		{2, 4, ""},
		{0, 0, "-p 0"},
		{1, 1, "-p 1"},
		{3, -1, "-n -1"},
	} {
		err := checkFlags(c.p, c.n)
		if c.want == "" {
			if err != nil {
				t.Errorf("checkFlags(p=%d, n=%d) = %v, want accepted", c.p, c.n, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("checkFlags(p=%d, n=%d) = %v, want an error naming %s", c.p, c.n, err, c.want)
		}
	}
}

// TestBuildStartsCap: a start set past the cap is refused with the cap
// named, however far past it q^n is; at these sizes q^n overflows an
// int.
func TestBuildStartsCap(t *testing.T) {
	spec, err := experiments.Lookup("asym")
	if err != nil {
		t.Fatal(err)
	}
	if starts, err := buildStarts(spec.New(3), 3, false); err != nil || len(starts) != 27 {
		t.Fatalf("asym P=N=3: %d starts, err %v; want 27", len(starts), err)
	}
	for _, c := range []struct{ p, n int }{{3, 40}, {8, 40}, {3, 44}} {
		_, err := buildStarts(spec.New(c.p), c.n, false)
		if err == nil || !strings.Contains(err.Error(), "too large") || !strings.Contains(err.Error(), strconv.Itoa(maxStarts)) {
			t.Errorf("asym p=%d n=%d: err = %v, want the too-large error naming the cap", c.p, c.n, err)
		}
	}
}
