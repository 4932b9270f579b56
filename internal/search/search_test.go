package search

import (
	"reflect"
	"strings"
	"testing"

	"popnaming/internal/core"
)

func TestEnumerateCounts(t *testing.T) {
	// q^q * (q^2)^C(q,2): q=2 -> 4*4 = 16; q=3 -> 27*729 = 19683.
	cases := []struct{ q, want int }{{2, 16}, {3, 19683}}
	for _, c := range cases {
		got := EnumerateSymmetric(c.q, func(*core.RuleTable) {})
		if got != c.want {
			t.Errorf("q=%d: enumerated %d protocols, want %d", c.q, got, c.want)
		}
	}
}

func TestEnumeratedProtocolsAreValid(t *testing.T) {
	checked := 0
	EnumerateSymmetric(2, func(tab *core.RuleTable) {
		if err := core.CheckProtocol(tab); err != nil {
			t.Errorf("enumerated protocol invalid: %v", err)
		}
		if !tab.Symmetric() {
			t.Errorf("enumerated protocol not symmetric: %s", tab)
		}
		checked++
	})
	if checked != 16 {
		t.Fatalf("checked %d, want 16", checked)
	}
}

func TestEnumerationIsExhaustiveAndDistinct(t *testing.T) {
	seen := make(map[string]bool)
	EnumerateSymmetric(2, func(tab *core.RuleTable) {
		key := ""
		for x := core.State(0); x < 2; x++ {
			for y := core.State(0); y < 2; y++ {
				a, b := tab.Mobile(x, y)
				key += string(rune('0'+a)) + string(rune('0'+b))
			}
		}
		if seen[key] {
			t.Errorf("duplicate protocol %q", key)
		}
		seen[key] = true
	})
	if len(seen) != 16 {
		t.Fatalf("saw %d distinct protocols, want 16", len(seen))
	}
}

// TestProp2NoTwoStateNaming: Proposition 1/2 at q = 2 — no symmetric
// leaderless 2-state protocol names two agents, under either fairness,
// with either initialization regime. The impossibility claim is only
// sound if every candidate was checked conclusively, so Inconclusive
// must be empty too.
func TestProp2NoTwoStateNaming(t *testing.T) {
	for _, f := range []Fairness{Global, Weak} {
		for _, init := range []Init{BestUniform, Arbitrary} {
			r := SymmetricNaming(2, []int{2}, f, init)
			if len(r.Survivors) != 0 {
				t.Errorf("q=2 %s/%s: unexpected survivors: %v", f, init, r.Survivors)
			}
			if len(r.Inconclusive) != 0 {
				t.Errorf("q=2 %s/%s: %d inconclusive candidates, claim is unsound", f, init, len(r.Inconclusive))
			}
			if r.Protocols != 16 {
				t.Errorf("q=2: enumerated %d, want 16", r.Protocols)
			}
		}
	}
}

// TestProp2NoThreeStateSelfStabilizingNaming: the P-state lower bound
// behind Proposition 13, machine-checked at P = 3 — none of the 19683
// symmetric leaderless 3-state protocols self-stabilizingly names a
// 3-agent population even under global fairness (Proposition 13's
// protocol needs P+1 = 4 states for this regime).
func TestProp2NoThreeStateSelfStabilizingNaming(t *testing.T) {
	r := SymmetricNaming(3, []int{3}, Global, Arbitrary)
	if len(r.Survivors) != 0 {
		t.Fatalf("unexpected survivors: %v", r.Survivors)
	}
	if len(r.Inconclusive) != 0 {
		t.Fatalf("%d inconclusive candidates, claim is unsound", len(r.Inconclusive))
	}
	if r.Protocols != 19683 {
		t.Fatalf("enumerated %d, want 19683", r.Protocols)
	}
}

// TestProp1NoThreeStateUniformNamingWeak: Proposition 1 at q = 3 — even
// granted its favourite uniform start, no symmetric leaderless 3-state
// protocol names populations of sizes 2 and 3 under weak fairness.
func TestProp1NoThreeStateUniformNamingWeak(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive q=3 search skipped in -short mode")
	}
	r := SymmetricNaming(3, []int{2, 3}, Weak, BestUniform)
	if len(r.Survivors) != 0 {
		t.Fatalf("unexpected survivors: %v", r.Survivors)
	}
	if len(r.Inconclusive) != 0 {
		t.Fatalf("%d inconclusive candidates, claim is unsound", len(r.Inconclusive))
	}
}

// TestSearchFindsPositiveControl: sanity-check that the search harness
// CAN find survivors when they exist — naming a SINGLE agent is trivial
// (every protocol names N=1), so the same pipeline with sizes=[1] must
// report every candidate as a survivor.
func TestSearchFindsPositiveControl(t *testing.T) {
	r := SymmetricNaming(2, []int{1}, Weak, Arbitrary)
	if len(r.Survivors) != r.Protocols {
		t.Fatalf("N=1 should be solvable by every protocol: %d/%d survived",
			len(r.Survivors), r.Protocols)
	}
}

func TestResultString(t *testing.T) {
	r := SymmetricNaming(2, []int{2}, Global, BestUniform)
	s := r.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// TestInconclusiveNotSilentlyRefuted is the regression test for the
// soundness bug: with a node budget too small for even the N=1 state
// space, every candidate's model check aborts with ErrTooLarge. The
// old code counted those aborts as refutations and reported "0
// survivors" for a claim that is actually TRUE for every candidate
// (the positive control: all 16 protocols name a single agent). Now
// they must surface as Inconclusive instead.
func TestInconclusiveNotSilentlyRefuted(t *testing.T) {
	r := SymmetricNamingOpts(2, []int{1}, Weak, Arbitrary, Options{MaxNodes: 1})
	if len(r.Survivors) != 0 {
		t.Errorf("budget of 1 node cannot certify survivors, got %d", len(r.Survivors))
	}
	if len(r.Inconclusive) != r.Protocols {
		t.Fatalf("want all %d candidates inconclusive, got %d", r.Protocols, len(r.Inconclusive))
	}
	for i, c := range r.Inconclusive {
		if i > 0 && c.Index <= r.Inconclusive[i-1].Index {
			t.Fatalf("Inconclusive not in enumeration order at %d: %d after %d",
				i, c.Index, r.Inconclusive[i-1].Index)
		}
	}
}

// TestSearchDeterministicAcrossWorkers requires byte-identical Results
// at workers 1, 2 and 8 — the correctness contract of sharded search.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	type cfg struct {
		q        int
		sizes    []int
		fairness Fairness
		init     Init
		maxNodes int
	}
	cases := []cfg{
		{2, []int{2}, Global, BestUniform, 0},
		{2, []int{2}, Global, Arbitrary, 0},
		{2, []int{2}, Weak, BestUniform, 0},
		{2, []int{2}, Weak, Arbitrary, 0},
		{2, []int{1}, Weak, Arbitrary, 0}, // survivors present
		{2, []int{1}, Weak, Arbitrary, 1}, // all inconclusive
		{2, []int{1, 2}, Weak, BestUniform, 0},
	}
	if !testing.Short() {
		cases = append(cases, cfg{3, []int{3}, Global, Arbitrary, 0})
	}
	for _, c := range cases {
		base := SymmetricNamingOpts(c.q, c.sizes, c.fairness, c.init,
			Options{Workers: 1, MaxNodes: c.maxNodes})
		for _, w := range []int{2, 8} {
			got := SymmetricNamingOpts(c.q, c.sizes, c.fairness, c.init,
				Options{Workers: w, MaxNodes: c.maxNodes})
			if !reflect.DeepEqual(got, base) {
				t.Errorf("q=%d sizes=%v %s/%s maxNodes=%d: workers=%d Result differs from workers=1\n got: %+v\nwant: %+v",
					c.q, c.sizes, c.fairness, c.init, c.maxNodes, w, got, base)
			}
		}
	}
}

// TestEnumerateRangeConcatenation: splitting the space into contiguous
// shards and concatenating them reproduces the full enumeration exactly
// — the property the worker-pool sharding relies on.
func TestEnumerateRangeConcatenation(t *testing.T) {
	const q = 2
	var full []string
	EnumerateSymmetric(q, func(tab *core.RuleTable) {
		full = append(full, tab.String())
	})
	for _, shards := range []int{2, 3, 5, 8} {
		var got []string
		var gotIdx []int
		total := 0
		for w := 0; w < shards; w++ {
			lo := w * len(full) / shards
			hi := (w + 1) * len(full) / shards
			total += EnumerateSymmetricRange(q, lo, hi, func(idx int, tab *core.RuleTable) {
				got = append(got, tab.String())
				gotIdx = append(gotIdx, idx)
			})
		}
		if total != len(full) {
			t.Fatalf("%d shards enumerated %d candidates, want %d", shards, total, len(full))
		}
		for i := range full {
			if gotIdx[i] != i {
				t.Fatalf("%d shards: candidate %d reported index %d", shards, i, gotIdx[i])
			}
			// Names embed the index, so compare rules past the name.
			wantRules := full[i][strings.IndexByte(full[i], '('):]
			gotRules := got[i][strings.IndexByte(got[i], '('):]
			if gotRules != wantRules {
				t.Fatalf("%d shards: candidate %d is %q, want %q", shards, i, gotRules, wantRules)
			}
		}
	}
}
