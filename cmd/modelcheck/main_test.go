package main

import (
	"strings"
	"testing"
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
