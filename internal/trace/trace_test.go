package trace

import (
	"testing"

	"popnaming/internal/core"
)

func TestCollector(t *testing.T) {
	var c Collector
	events := []Event{
		{Step: 0, Pair: core.Pair{A: 0, B: 1}, NonNull: true},
		{Step: 1, Pair: core.Pair{A: core.LeaderIndex, B: 0}, NonNull: false},
		{Step: 2, Pair: core.Pair{A: 1, B: 2}, NonNull: true},
	}
	for _, e := range events {
		c.Record(e)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.NonNullCount() != 2 {
		t.Fatalf("NonNullCount = %d, want 2", c.NonNullCount())
	}
	pairs := c.Pairs()
	if len(pairs) != 3 || pairs[1] != (core.Pair{A: core.LeaderIndex, B: 0}) {
		t.Fatalf("Pairs = %v", pairs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Step: 7, Pair: core.Pair{A: core.LeaderIndex, B: 2}, NonNull: true}
	if got := e.String(); got != "#7 (L,2)*" {
		t.Errorf("String = %q", got)
	}
	e.NonNull = false
	if got := e.String(); got != "#7 (L,2) " {
		t.Errorf("String = %q", got)
	}
}
