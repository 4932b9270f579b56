//go:build !race

package obs

import (
	"io"
	"testing"

	"popnaming/internal/core"
)

// TestSummaryAllocs: a trial's summary record, built and written, costs
// the same allocations with 50 rules as with 1: the rule list is merged
// and sorted without a map or a string per rule, and the record is
// encoded without reflection into the sink's reused buffer.
func TestSummaryAllocs(t *testing.T) {
	tab := fuzzTable(8)
	observer := func(rules int) *Observer {
		o := NewObserver(8, true, ObserverOptions{})
		o.ObserveLeaderRule(0, 1, true) // a map rule beside the dense ones
		o.CompileRules(tab)
		for i := range rules - 1 {
			x, y := core.State(i/8), core.State(i%8)
			x2, y2 := tab.Mobile(x, y)
			o.ObserveRule(x, y, x2, y2, true)
			o.ObserveNulls(i)
		}
		o.ObserveNulls(3) // a quiet streak in every summary
		o.Finish(true)
		return o
	}
	sink := NewJournalSink(io.Discard)
	for _, c := range []struct {
		name string
		run  func(o *Observer) func()
	}{
		{"JournalSink", func(o *Observer) func() { return func() { sink.Emit(o.summary(true, 0)) } }},
		{"MarshalRecord", func(o *Observer) func() { return func() { MarshalRecord(o.summary(true, 0)) } }},
	} {
		one, fifty := observer(1), observer(50)
		if n := len(fifty.RuleCounts()); n != 50 {
			t.Fatalf("%d rules, want 50", n)
		}
		if a, b := testing.AllocsPerRun(50, c.run(one)), testing.AllocsPerRun(50, c.run(fifty)); a != b {
			t.Errorf("%s: a summary with 1 rule allocates %v times, with 50 rules %v", c.name, a, b)
		}
	}
}
