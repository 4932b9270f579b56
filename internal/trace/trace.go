// Package trace records interaction histories of protocol executions:
// which pair interacted at each step, whether the transition was
// non-null, and (optionally) configuration snapshots. Traces feed the
// fairness auditors and the counterexample reports of the impossibility
// experiments.
package trace

import (
	"fmt"

	"popnaming/internal/core"
)

// Event is one interaction of an execution.
type Event struct {
	// Step is the 0-based index of the interaction.
	Step int
	// Pair identifies the interacting agents.
	Pair core.Pair
	// NonNull reports whether the transition changed any state.
	NonNull bool
}

func (e Event) String() string {
	mark := " "
	if e.NonNull {
		mark = "*"
	}
	return fmt.Sprintf("#%d %s%s", e.Step, e.Pair, mark)
}

// Collector accumulates every event of an execution. The zero value is
// ready to use.
type Collector struct {
	events []Event
}

// Record appends an event.
func (c *Collector) Record(e Event) { c.events = append(c.events, e) }

// Events returns the recorded events, aliasing internal storage.
func (c *Collector) Events() []Event { return c.events }

// Pairs returns just the interaction pairs, in order.
func (c *Collector) Pairs() []core.Pair {
	out := make([]core.Pair, len(c.events))
	for i, e := range c.events {
		out[i] = e.Pair
	}
	return out
}

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.events) }

// NonNullCount returns how many recorded transitions were non-null.
func (c *Collector) NonNullCount() int {
	n := 0
	for _, e := range c.events {
		if e.NonNull {
			n++
		}
	}
	return n
}
