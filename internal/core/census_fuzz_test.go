package core

import (
	"math/rand"
	"testing"
)

// censusSizes are the state counts FuzzCensusMatchesRecount builds
// tables over: one- and two-state tables, a small one, and either side
// of the first and second 64-state word boundaries of the bitsets.
var censusSizes = []int{1, 2, 5, 63, 64, 65, 127, 129}

// hashProtocol is a random mobile-mobile table over q states: the pair
// (x, y) is non-null with probability about density/256, moving to a
// pair drawn from a hash of (seed, x, y). Its Symmetric claim is the
// truth, computed at construction, so Compile accepts it.
type hashProtocol struct {
	q       int
	seed    uint64
	density uint8
	sym     bool
}

func newHashProtocol(q int, seed uint64, density uint8) *hashProtocol {
	p := &hashProtocol{q: q, seed: seed, density: density}
	p.sym = true
	for x := 0; x < q && p.sym; x++ {
		for y := 0; y < q; y++ {
			x2, y2 := p.Mobile(State(x), State(y))
			if my2, mx2 := p.Mobile(State(y), State(x)); mx2 != x2 || my2 != y2 {
				p.sym = false
				break
			}
		}
	}
	return p
}

func (p *hashProtocol) Name() string    { return "hash" }
func (p *hashProtocol) P() int          { return p.q }
func (p *hashProtocol) States() int     { return p.q }
func (p *hashProtocol) Symmetric() bool { return p.sym }

func (p *hashProtocol) Mobile(x, y State) (State, State) {
	h := p.seed ^ uint64(x)*0x9e3779b97f4a7c15 ^ uint64(y)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	if uint8(h) >= p.density {
		return x, y
	}
	return State((h >> 8) % uint64(p.q)), State((h >> 32) % uint64(p.q))
}

// refActivePairs is the census's activePairs as it was computed before
// the census kept bitsets: every ordered pair of occupied states, two
// agents needed on the diagonal, tested against the null bitset, in
// O(occupied²).
func refActivePairs(tab *Compiled, counts []int) int {
	active := 0
	for x, cx := range counts {
		if cx == 0 {
			continue
		}
		for y, cy := range counts {
			if cy == 0 || (x == y && cx < 2) {
				continue
			}
			if !tab.Null(State(x), State(y)) {
				active++
			}
		}
	}
	return active
}

// FuzzCensusMatchesRecount drives two censuses of one configuration,
// one built by NewCensus and one by NewCensusCounts over a shared
// occupancy vector, through random Apply, ApplyOne and Resync steps
// over a random compiled table, and after every step holds both to the
// configuration's counts and their ActivePairs to refActivePairs. At
// q ≤ 6 Silent must also equal the exhaustive core.Silent.
func FuzzCensusMatchesRecount(f *testing.F) {
	for i := range censusSizes {
		f.Add(uint8(i), uint64(i)*7919, uint8(96), []byte{0, 1, 2, 0, 0, 1, 3, 0, 1, 0, 2, 1})
		f.Add(uint8(i), uint64(i)*104729+1, uint8(255), []byte{1, 1, 0, 0, 4, 2, 0, 1})
	}
	f.Add(uint8(3), uint64(42), uint8(8), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, qi uint8, seed uint64, density uint8, ops []byte) {
		q := censusSizes[int(qi)%len(censusSizes)]
		pr := newHashProtocol(q, seed, density)
		tab, err := Compile(pr)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + rng.Intn(2*q+2)
		cfg := NewConfig(n, 0)
		for i := range cfg.Mobile {
			cfg.Mobile[i] = State(rng.Intn(q))
		}
		cs, err := NewCensus(tab, cfg)
		if err != nil {
			t.Fatalf("NewCensus: %v", err)
		}
		shared := make([]int, q)
		for _, s := range cfg.Mobile {
			shared[s]++
		}
		cc, err := NewCensusCounts(tab, shared)
		if err != nil {
			t.Fatalf("NewCensusCounts: %v", err)
		}

		check := func(step int) {
			t.Helper()
			counts := make([]int, q)
			for _, s := range cfg.Mobile {
				counts[s]++
			}
			want := refActivePairs(tab, counts)
			for s, c := range counts {
				if cs.Count(State(s)) != c || cc.Count(State(s)) != c || shared[s] != c {
					t.Fatalf("step %d: state %d counted %d/%d/%d, want %d", step, s, cs.Count(State(s)), cc.Count(State(s)), shared[s], c)
				}
			}
			if cs.ActivePairs() != want || cc.ActivePairs() != want {
				t.Fatalf("step %d (q=%d): active pairs %d (NewCensus), %d (NewCensusCounts), recount %d", step, q, cs.ActivePairs(), cc.ActivePairs(), want)
			}
			if q <= 6 {
				if exhaustive := Silent(pr, cfg); cs.Silent(nil) != exhaustive || cc.Silent(nil) != exhaustive {
					t.Fatalf("step %d: census silence %v/%v, exhaustive %v", step, cs.Silent(nil), cc.Silent(nil), exhaustive)
				}
			}
		}
		check(-1)
		for step, op := range ops {
			if step == 256 {
				break
			}
			switch op % 3 {
			case 0: // one interaction: the table's move, or any other
				i := rng.Intn(n)
				j := (i + 1 + rng.Intn(n-1)) % n
				x, y := cfg.Mobile[i], cfg.Mobile[j]
				x2, y2 := tab.Mobile(x, y)
				if x2 == x && y2 == y {
					x2, y2 = State(rng.Intn(q)), State(rng.Intn(q))
				}
				if x2 == x && y2 == y {
					continue
				}
				cfg.Mobile[i], cfg.Mobile[j] = x2, y2
				cs.Apply(x, y, x2, y2)
				cc.Apply(x, y, x2, y2)
			case 1: // a leader moves one agent
				i := rng.Intn(n)
				x, x2 := cfg.Mobile[i], State(rng.Intn(q))
				if x2 == x {
					continue
				}
				cfg.Mobile[i] = x2
				cs.ApplyOne(x, x2)
				cc.ApplyOne(x, x2)
			default: // a fault rewrites agents behind the census's back
				for k := int(op) % 5; k >= 0; k-- {
					cfg.Mobile[rng.Intn(n)] = State(rng.Intn(q))
				}
				if err := cs.Resync(cfg); err != nil {
					t.Fatalf("Resync: %v", err)
				}
				if err := cc.Resync(cfg); err != nil {
					t.Fatalf("Resync (counts): %v", err)
				}
			}
			check(step)
		}
	})
}
