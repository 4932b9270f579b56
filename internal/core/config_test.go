package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// testLeader is a minimal LeaderState for configuration tests.
type testLeader struct{ v int }

func (l testLeader) Clone() LeaderState { return l }
func (l testLeader) Equal(o LeaderState) bool {
	ol, ok := o.(testLeader)
	return ok && ol == l
}
func (l testLeader) AppendKey(buf []byte) []byte { return append(buf, "v="+string(rune('0'+l.v))...) }
func (l testLeader) String() string              { return string(l.AppendKey(nil)) }

func TestNewConfig(t *testing.T) {
	c := NewConfig(4, 7)
	if c.N() != 4 {
		t.Fatalf("N = %d, want 4", c.N())
	}
	for i, s := range c.Mobile {
		if s != 7 {
			t.Errorf("agent %d = %d, want 7", i, s)
		}
	}
	if c.Leader != nil {
		t.Error("unexpected leader")
	}
}

func TestNewConfigStatesCopies(t *testing.T) {
	src := []State{1, 2, 3}
	c := NewConfigStates(src...)
	src[0] = 9
	if c.Mobile[0] != 1 {
		t.Error("NewConfigStates aliased its input")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewConfigStates(1, 2, 3).WithLeader(testLeader{v: 1})
	d := c.Clone()
	d.Mobile[0] = 9
	d.Leader = testLeader{v: 2}
	if c.Mobile[0] != 1 || !c.Leader.Equal(testLeader{v: 1}) {
		t.Error("Clone shares state with original")
	}
	if !c.Equal(c.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b *Config
		want bool
	}{
		{NewConfigStates(1, 2), NewConfigStates(1, 2), true},
		{NewConfigStates(1, 2), NewConfigStates(2, 1), false},
		{NewConfigStates(1, 2), NewConfigStates(1, 2, 3), false},
		{NewConfigStates(1).WithLeader(testLeader{1}), NewConfigStates(1).WithLeader(testLeader{1}), true},
		{NewConfigStates(1).WithLeader(testLeader{1}), NewConfigStates(1).WithLeader(testLeader{2}), false},
		{NewConfigStates(1).WithLeader(testLeader{1}), NewConfigStates(1), false},
		{NewConfigStates(1), NewConfigStates(1).WithLeader(testLeader{1}), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.want)
		}
	}
}

func TestKeyDistinguishesIdentity(t *testing.T) {
	a := NewConfigStates(1, 2)
	b := NewConfigStates(2, 1)
	if a.Key() == b.Key() {
		t.Error("Key failed to distinguish permuted configurations")
	}
	if a.MultisetKey() != b.MultisetKey() {
		t.Error("MultisetKey distinguished permuted configurations")
	}
}

func TestKeyLeaderSeparator(t *testing.T) {
	withL := NewConfigStates(1, 2).WithLeader(testLeader{3}).Key()
	without := NewConfigStates(1, 2).Key()
	if withL == without {
		t.Error("Key ignores leader")
	}
	if !strings.Contains(withL, "|") {
		t.Errorf("leader key %q missing separator", withL)
	}
}

// Property: MultisetKey is invariant under permutation; Key is injective
// on distinct vectors.
func TestMultisetKeyPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		states := make([]State, len(raw))
		for i, v := range raw {
			states[i] = State(v % 8)
		}
		c := NewConfigStates(states...)
		perm := r.Perm(len(states))
		shuffled := make([]State, len(states))
		for i, p := range perm {
			shuffled[i] = states[p]
		}
		d := NewConfigStates(shuffled...)
		return c.MultisetKey() == d.MultisetKey()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCount(t *testing.T) {
	c := NewConfigStates(1, 2, 1, 0, 1)
	cases := []struct {
		s    State
		want int
	}{{1, 3}, {2, 1}, {0, 1}, {5, 0}}
	for _, tc := range cases {
		if got := c.Count(tc.s); got != tc.want {
			t.Errorf("Count(%d) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestHomonyms(t *testing.T) {
	c := NewConfigStates(1, 2, 1, 3, 2, 1)
	h := c.Homonyms()
	if len(h) != 2 {
		t.Fatalf("got %d homonym groups, want 2", len(h))
	}
	ones := h[1]
	sort.Ints(ones)
	if len(ones) != 3 || ones[0] != 0 || ones[1] != 2 || ones[2] != 5 {
		t.Errorf("homonyms of 1 = %v, want [0 2 5]", ones)
	}
	if len(h[2]) != 2 {
		t.Errorf("homonyms of 2 = %v, want 2 agents", h[2])
	}
}

func TestValidNaming(t *testing.T) {
	cases := []struct {
		states []State
		want   bool
	}{
		{[]State{}, true},
		{[]State{5}, true},
		{[]State{1, 2, 3}, true},
		{[]State{1, 2, 1}, false},
		{[]State{0, 0}, false},
	}
	for i, c := range cases {
		cfg := NewConfigStates(c.states...)
		if got := cfg.ValidNaming(); got != c.want {
			t.Errorf("case %d: ValidNaming = %v, want %v", i, got, c.want)
		}
		if cfg.HasHomonyms() == c.want {
			t.Errorf("case %d: HasHomonyms inconsistent with ValidNaming", i)
		}
	}
}

// Property: ValidNaming(c) iff the number of distinct states equals N.
func TestValidNamingProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		states := make([]State, len(raw))
		distinct := make(map[State]bool)
		for i, v := range raw {
			states[i] = State(v % 16)
			distinct[states[i]] = true
		}
		c := NewConfigStates(states...)
		return c.ValidNaming() == (len(distinct) == len(states))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	c := NewConfigStates(1, 2).WithLeader(testLeader{3})
	got := c.String()
	if !strings.HasPrefix(got, "[1 2 | ") {
		t.Errorf("String = %q", got)
	}
}
