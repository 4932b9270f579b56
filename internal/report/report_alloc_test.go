//go:build !race

package report

import (
	"io"
	"strconv"
	"testing"
)

// Allocations are counted only in builds without the race detector,
// like the other allocation pins.

// TestRenderAllocs: each emitter makes at most one allocation per call,
// whatever the number of points or rows: its output goes into one
// recycled buffer.
func TestRenderAllocs(t *testing.T) {
	series := func(n int) *Series {
		s := &Series{Name: "convergence_cdf p=6 <&>", XLabel: "steps", YLabel: "fraction <= x"}
		for i := range n {
			s.Add(float64(100+37*i), float64(i+1)/float64(n))
		}
		return s
	}
	table := func(n int) *Table {
		tab := NewTable("campaign cells", "cell", "fault_plan", "steps")
		for i := range n {
			tab.AddRow("self_stab-agent-p6n4", "@100:corrupt=2 50%", strconv.Itoa(1000*i))
		}
		return tab
	}
	for _, n := range []int{1, 200} {
		s, tab := series(n), table(n)
		for _, r := range []struct {
			name   string
			render func()
		}{
			{"Series.Render", func() { s.Render(io.Discard) }},
			{"RenderASCII", func() { s.RenderASCII(io.Discard, 72, 20) }},
			{"RenderSVG", func() { s.RenderSVG(io.Discard, 640, 400) }},
			{"Table.Render", func() { tab.Render(io.Discard) }},
			{"RenderLaTeX", func() { tab.RenderLaTeX(io.Discard) }},
		} {
			if a := testing.AllocsPerRun(20, r.render); a > 1 {
				t.Errorf("%s of %d points or rows: %v allocations, want at most 1", r.name, n, a)
			}
		}
	}
}
