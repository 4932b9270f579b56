package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// censusProto is a 3-state protocol where only the (0, 1) encounter is
// non-null, giving the census a clean active-pair signal to track.
func censusProto() Protocol {
	return NewRuleTable("census", 3, 3).AddSymmetric(0, 1, 2, 2)
}

func TestCensusResync(t *testing.T) {
	pr := censusProto()
	tab, err := Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfigStates(2, 2, 2, 2)
	cs, err := NewCensus(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.MobileSilent() {
		t.Fatal("all-2 configuration must be silent")
	}

	// Mutate behind the census's back: the stale counters still claim
	// silence even though (0, 1) is now schedulable and non-null.
	cfg.Mobile[0], cfg.Mobile[1] = 0, 1
	if !cs.MobileSilent() {
		t.Fatal("stale census unexpectedly noticed the external mutation")
	}
	if err := cs.Resync(cfg); err != nil {
		t.Fatal(err)
	}
	if cs.MobileSilent() {
		t.Fatal("resynced census still claims silence")
	}
	if cs.Count(0) != 1 || cs.Count(1) != 1 || cs.Count(2) != 2 {
		t.Fatalf("resynced counts wrong: %d/%d/%d", cs.Count(0), cs.Count(1), cs.Count(2))
	}

	// The resynced census must agree with one built from scratch.
	fresh, err := NewCensus(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ActivePairs() != fresh.ActivePairs() {
		t.Fatalf("active pairs diverge: resync %d vs fresh %d", cs.ActivePairs(), fresh.ActivePairs())
	}
}

func TestCensusResyncRejectsBadState(t *testing.T) {
	pr := censusProto()
	tab, err := Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfigStates(0, 1)
	cs, err := NewCensus(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := cs.ActivePairs()

	cfg.Mobile[0] = 99 // outside [0, 3)
	if err := cs.Resync(cfg); err == nil {
		t.Fatal("Resync accepted an out-of-range state")
	}
	if cs.ActivePairs() != before || cs.Count(0) != 1 {
		t.Fatal("failed Resync modified the census")
	}
}

// censusChurn is a census of about q/2 agents in distinct states of a
// random half-null table over q states, with moves that each take two
// occupied states (x, y) to two random ones: every move crosses several
// occupancies between 0 and 1, the census's costly case.
type censusChurn struct {
	cs    *Census
	moves [][4]State // x, y, x2, y2
}

func newCensusChurn(tb testing.TB, q int) censusChurn {
	tb.Helper()
	tab, err := Compile(newHashProtocol(q, uint64(q), 128))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(q)))
	perm := rng.Perm(q)
	cfg := NewConfig(max(2, q/2), 0)
	for i := range cfg.Mobile {
		cfg.Mobile[i] = State(perm[i%q])
	}
	cs, err := NewCensus(tab, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c := censusChurn{cs: cs}
	for k := 0; k < 256; k++ {
		i := rng.Intn(cfg.N())
		j := (i + 1 + rng.Intn(cfg.N()-1)) % cfg.N()
		c.moves = append(c.moves, [4]State{cfg.Mobile[i], cfg.Mobile[j], State(rng.Intn(q)), State(rng.Intn(q))})
	}
	return c
}

// step applies move k and then its inverse, so the census returns to
// its starting occupancy.
func (c censusChurn) step(k int) {
	m := c.moves[k%len(c.moves)]
	c.cs.Apply(m[0], m[1], m[2], m[3])
	c.cs.Apply(m[2], m[3], m[0], m[1])
}

// BenchmarkCensusApply prices occupancy churn: one op is two Apply
// calls (a move and its inverse), each crossing up to four occupancies
// between 0 and 1, at q = 6, 64 and 1,024 states.
func BenchmarkCensusApply(b *testing.B) {
	for _, q := range []int{6, 64, 1024} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			c := newCensusChurn(b, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step(i)
			}
		})
	}
}
