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
