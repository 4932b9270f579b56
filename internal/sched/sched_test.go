package sched

import (
	"testing"
	"testing/quick"

	"popnaming/internal/core"
)

func TestAllPairsCount(t *testing.T) {
	cases := []struct {
		n          int
		withLeader bool
		want       int
	}{
		{2, false, 2},
		{3, false, 6},
		{2, true, 6},
		{4, true, 20},
	}
	for _, c := range cases {
		got := AllPairs(c.n, c.withLeader)
		if len(got) != c.want {
			t.Errorf("AllPairs(%d, %v): %d pairs, want %d", c.n, c.withLeader, len(got), c.want)
		}
		for _, p := range got {
			if !p.Valid(c.n, c.withLeader) {
				t.Errorf("AllPairs(%d, %v) produced invalid pair %v", c.n, c.withLeader, p)
			}
		}
	}
}

func TestRandomValidity(t *testing.T) {
	for _, withLeader := range []bool{false, true} {
		s := NewRandom(5, withLeader, 1)
		for i := 0; i < 10000; i++ {
			p := s.Next()
			if !p.Valid(5, withLeader) {
				t.Fatalf("invalid pair %v (leader=%v)", p, withLeader)
			}
			if !withLeader && p.HasLeader() {
				t.Fatalf("leaderless scheduler yielded leader pair %v", p)
			}
		}
	}
}

func TestRandomUniformity(t *testing.T) {
	// Every ordered pair should appear with roughly equal frequency.
	const n, draws = 4, 120000
	s := NewRandom(n, true, 2)
	counts := make(map[core.Pair]int)
	for i := 0; i < draws; i++ {
		counts[s.Next()]++
	}
	pairs := AllPairs(n, true)
	if len(counts) != len(pairs) {
		t.Fatalf("saw %d distinct pairs, want %d", len(counts), len(pairs))
	}
	expect := draws / len(pairs)
	for p, c := range counts {
		if c < expect*8/10 || c > expect*12/10 {
			t.Errorf("pair %v drawn %d times, expected about %d", p, c, expect)
		}
	}
}

func TestRandomDeterministicSeed(t *testing.T) {
	a, b := NewRandom(6, true, 99), NewRandom(6, true, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestRandomPanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandom(1, false) did not panic")
		}
	}()
	NewRandom(1, false, 0)
}

func TestRoundRobinCoversEveryPairEachCycle(t *testing.T) {
	for _, withLeader := range []bool{false, true} {
		s := NewRoundRobin(4, withLeader)
		seen := make(map[core.Pair]int)
		for i := 0; i < s.CycleLen(); i++ {
			seen[s.Next()]++
		}
		for _, p := range AllPairs(4, withLeader) {
			if seen[p] != 1 {
				t.Errorf("pair %v seen %d times in one cycle (leader=%v)", p, seen[p], withLeader)
			}
		}
	}
}

func TestRoundRobinPeriodicity(t *testing.T) {
	s := NewRoundRobin(3, false)
	cycle := make([]core.Pair, s.CycleLen())
	for i := range cycle {
		cycle[i] = s.Next()
	}
	for i := range cycle {
		if got := s.Next(); got != cycle[i] {
			t.Fatalf("position %d: second cycle %v differs from first %v", i, got, cycle[i])
		}
	}
}

func TestReplayThenFallback(t *testing.T) {
	script := []core.Pair{{A: 0, B: 1}, {A: 1, B: 2}}
	s := NewReplay(script, NewRoundRobin(3, false))
	if got := s.Next(); got != script[0] {
		t.Fatalf("first = %v", got)
	}
	if s.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", s.Remaining())
	}
	if got := s.Next(); got != script[1] {
		t.Fatalf("second = %v", got)
	}
	// Fallback engaged; must keep producing valid pairs.
	for i := 0; i < 10; i++ {
		if p := s.Next(); !p.Valid(3, false) {
			t.Fatalf("fallback produced invalid pair %v", p)
		}
	}
}

func TestReplayExhaustedPanics(t *testing.T) {
	s := NewReplay([]core.Pair{{A: 0, B: 1}}, nil)
	s.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted replay with nil fallback did not panic")
		}
	}()
	s.Next()
}

func TestChainSwitchesAtLimit(t *testing.T) {
	first := NewReplay([]core.Pair{{A: 0, B: 1}, {A: 0, B: 1}}, nil)
	second := NewRoundRobin(3, false)
	s := NewChain(first, 2, second)
	if s.Next() != (core.Pair{A: 0, B: 1}) || s.Next() != (core.Pair{A: 0, B: 1}) {
		t.Fatal("chain did not draw from first scheduler")
	}
	want := NewRoundRobin(3, false).Next()
	if got := s.Next(); got != want {
		t.Fatalf("after limit: %v, want %v", got, want)
	}
}

// Property: Random never yields a self-pair and respects index bounds.
func TestRandomPairProperty(t *testing.T) {
	s := NewRandom(7, true, 3)
	prop := func(_ uint8) bool {
		p := s.Next()
		return p.A != p.B && p.A >= -1 && p.B >= -1 && p.A < 7 && p.B < 7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStreamPinned pins the first 256 pairs Random draws from
// seed 42, flattened as A, B, A, B, ... for a leaderless and a leader
// population of six. Every seeded trial replays through this stream,
// so a change to when or how the source is seeded must leave it
// untouched.
func TestRandomStreamPinned(t *testing.T) {
	cases := []struct {
		name   string
		leader bool
		want   []int
	}{
		{"leaderless", false, []int{
			3, 4, 3, 2, 0, 2, 1, 0, 1, 3, 3, 0, 1, 3, 1, 4, 5, 3, 2, 5, 5, 1, 3, 4, 3, 4, 1, 0, 1, 5, 1, 4,
			4, 1, 2, 5, 0, 3, 1, 5, 1, 0, 0, 1, 4, 3, 1, 0, 0, 2, 4, 2, 0, 3, 2, 0, 2, 1, 2, 0, 3, 0, 2, 5,
			5, 4, 0, 5, 2, 3, 4, 5, 4, 2, 5, 2, 2, 3, 0, 2, 2, 5, 1, 5, 3, 0, 3, 0, 1, 5, 0, 4, 3, 2, 5, 1,
			5, 1, 1, 2, 5, 2, 4, 0, 4, 5, 1, 2, 1, 2, 4, 0, 0, 4, 4, 0, 5, 2, 5, 0, 0, 3, 0, 5, 4, 2, 0, 2,
			5, 0, 3, 0, 3, 4, 1, 2, 5, 2, 2, 5, 2, 0, 0, 5, 1, 2, 1, 5, 0, 5, 5, 1, 5, 3, 1, 3, 4, 1, 4, 2,
			1, 5, 1, 3, 4, 3, 3, 5, 2, 1, 3, 1, 5, 4, 2, 3, 2, 4, 2, 5, 3, 4, 3, 2, 1, 3, 0, 3, 1, 2, 4, 3,
			3, 0, 4, 5, 3, 4, 0, 4, 1, 3, 2, 3, 0, 4, 1, 3, 3, 5, 1, 5, 5, 1, 1, 0, 4, 1, 3, 5, 5, 3, 5, 1,
			3, 2, 4, 0, 2, 5, 4, 5, 4, 0, 4, 2, 4, 2, 5, 4, 0, 3, 2, 0, 0, 5, 5, 4, 3, 0, 0, 5, 4, 2, 4, 3,
			5, 0, 4, 5, 3, 4, 0, 4, 3, 0, 5, 0, 1, 3, 2, 0, 0, 1, 4, 0, 3, 1, 2, 0, 1, 2, 5, 1, 1, 4, 1, 2,
			1, 3, 0, 3, 4, 1, 1, 5, 4, 5, 5, 0, 4, 5, 2, 1, 2, 3, 1, 4, 5, 3, 0, 5, 5, 0, 1, 2, 1, 5, 5, 2,
			3, 4, 3, 4, 1, 5, 0, 4, 3, 5, 4, 3, 2, 4, 3, 5, 2, 5, 5, 3, 0, 1, 3, 2, 3, 1, 0, 5, 2, 5, 1, 5,
			1, 2, 1, 4, 5, 3, 0, 3, 2, 5, 0, 1, 4, 0, 4, 1, 4, 3, 2, 3, 5, 2, 1, 5, 4, 0, 2, 3, 4, 0, 3, 0,
			3, 0, 5, 0, 2, 4, 1, 4, 5, 4, 3, 4, 1, 4, 3, 4, 2, 3, 3, 1, 5, 3, 2, 1, 2, 5, 3, 5, 5, 1, 3, 2,
			3, 5, 5, 4, 1, 2, 3, 4, 4, 5, 2, 1, 5, 3, 3, 0, 3, 2, 4, 5, 2, 0, 4, 0, 0, 1, 3, 1, 4, 2, 5, 4,
			4, 3, 4, 3, 4, 1, 5, 3, 1, 0, 4, 0, 5, 3, 1, 5, 5, 4, 3, 0, 2, 3, 1, 0, 4, 0, 1, 4, 4, 2, 5, 2,
			5, 3, 2, 4, 1, 0, 3, 5, 2, 5, 1, 3, 3, 5, 4, 2, 3, 5, 5, 2, 1, 4, 3, 1, 3, 5, 5, 0, 4, 5, 1, 3,
		}},
		{"leader", true, []int{
			3, 4, 3, 2, -1, 1, 0, -1, 1, 3, 3, 0, 0, 2, 1, 4, 5, 3, 1, 4, 5, 1, 3, 2, 2, 4, 1, -1, 0, 4, 1, 4,
			3, 1, 1, 5, -1, 2, 1, 5, 0, -1, -1, 1, 4, 2, 1, -1, -1, 1, 4, 2, -1, 2, 2, -1, 1, 0, 1, -1, 2, 0, 1, 5,
			5, 4, -1, 5, 2, 3, 4, 5, 3, 1, 5, 1, 1, 3, -1, 1, 2, 5, 0, 5, 2, -1, 3, -1, 0, 5, -1, 4, 3, 1, 5, 0,
			5, 0, 1, 2, 5, 2, 4, -1, 3, 5, 0, 2, 0, 1, 4, -1, -1, 4, 3, -1, 5, 2, 5, -1, -1, 2, 0, 5, 4, 2, 0, 2,
			5, -1, 2, -1, 3, 2, 0, 1, 5, 1, 1, 5, 1, -1, 0, 5, 0, 1, 0, 5, 0, 4, 4, 0, 5, 3, 0, 3, 4, 0, 3, 1,
			1, 5, 0, 2, 4, 2, 2, 5, 1, 0, 3, 1, 5, 4, 1, 3, 2, 3, 1, 5, 3, 2, 2, 1, 0, 2, -1, 3, 0, 2, 4, 3,
			3, -1, 3, 5, 3, 4, -1, 4, 0, 3, 1, 2, -1, 4, 0, 3, 3, 5, 0, 5, 5, 0, 1, -1, 4, 1, 3, 4, 5, 3, 4, 0,
			2, 3, 3, -1, 1, 5, 3, 5, 4, -1, 4, 2, 4, 2, 5, 4, -1, 3, 2, -1, -1, 5, 4, 5, 3, -1, -1, 5, 4, 2, 3, 4,
			5, -1, 3, 5, 3, 4, -1, 4, 3, -1, 5, -1, 0, 2, 2, 0, -1, 0, 3, -1, 2, 1, 2, -1, 0, 1, 5, 1, 0, 4, 0, 1,
			0, 3, -1, 2, 3, 1, 0, 5, 3, 5, 5, -1, 3, 5, 2, 0, 1, 3, 1, 4, 5, 2, -1, 4, 5, -1, 0, 1, 0, 5, 5, 2,
			2, 4, 2, 4, 0, 5, -1, 4, 3, 5, 4, 3, 1, 4, 3, 5, 1, 4, 5, 3, -1, 0, 2, 1, 3, 0, -1, 5, 1, 5, 0, 5,
			0, 1, 0, 3, 5, 3, -1, 2, 1, 5, 0, -1, 4, -1, 3, 0, 4, 3, 2, 1, 5, 2, 0, 5, 4, -1, 1, 3, 4, -1, 3, -1,
			2, -1, 4, -1, 2, 3, 0, 4, 5, 4, 2, 3, 1, 4, 2, 3, 1, 3, 3, 0, 5, 2, 1, 2, 2, 5, 3, 5, 5, 0, 3, 2,
			3, 5, 5, 4, 1, 0, 3, 4, 3, 5, 1, 0, 5, 2, 2, -1, 3, 1, 4, 5, 1, -1, 3, -1, -1, 0, 3, 0, 3, 1, 5, 4,
			3, 2, 4, 2, 4, 1, 4, 2, 1, -1, 4, -1, 5, 3, 0, 5, 5, 4, 2, 0, 2, 3, 0, -1, 4, -1, 1, 4, 4, 2, 5, 2,
			4, 3, 2, 3, 1, -1, 2, 5, 1, 5, 0, 2, 3, 5, 3, 1, 2, 5, 5, 1, 1, 4, 3, 0, 2, 5, 5, -1, 4, 5, 0, 3,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewRandom(6, c.leader, 42)
			for i := 0; i < len(c.want)/2; i++ {
				want := core.Pair{A: c.want[2*i], B: c.want[2*i+1]}
				if got := s.Next(); got != want {
					t.Fatalf("pair %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}
