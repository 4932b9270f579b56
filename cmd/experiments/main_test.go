package main

import (
	"strings"
	"testing"

	"popnaming/internal/experiments"
)

// TestListSuite pins the -list output: every registry entry appears
// with its tag and description.
func TestListSuite(t *testing.T) {
	var b strings.Builder
	listSuite(&b)
	out := b.String()
	for _, e := range experiments.Suite() {
		if !strings.Contains(out, e.Key) || !strings.Contains(out, e.Tag) || !strings.Contains(out, e.Description) {
			t.Errorf("entry %s (%s) missing from listing:\n%s", e.Key, e.Tag, out)
		}
	}
}

// TestCheckFlags: bounds the protocol constructors cannot take are
// rejected with the flag named, instead of panicking inside Table 1.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		p, mcp int
		want   string // "" accepts; else the flag the error names
	}{
		{6, 3, ""},
		{2, 2, ""},
		{1, 3, "-p 1"},
		{0, 3, "-p 0"},
		{6, 1, "-mcp 1"},
	} {
		err := checkFlags(c.p, c.mcp)
		if c.want == "" {
			if err != nil {
				t.Errorf("checkFlags(p=%d, mcp=%d) = %v, want accepted", c.p, c.mcp, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.want+":") {
			t.Errorf("checkFlags(p=%d, mcp=%d) = %v, want an error naming %s", c.p, c.mcp, err, c.want)
		}
	}
}
