// Package rng is a bit-exact copy of math/rand's seeded generator, the
// source rand.NewSource returns, as a concrete type: the same seed gives
// the same stream, draw for draw, so every seeded run keeps its journal,
// digest and output. It differs in cost only. Uint64 is a direct call
// the compiler can inline, where a rand.Source64 draw is an interface
// call, and seeding computes the 1,821 terms of the seed's congruential
// sequence it uses by jump-ahead, each one multiplication by a power
// from a table, instead of stepping a chain of 1,841 dependent steps.
//
// There is no pool of sources and no release: an owner that runs one
// stream after another keeps its Source and calls Seed for the next.
// A batch worker owns the sources of the trial state it reuses (see
// sim.RunBatch) and re-seeds them with each trial's seeds.
//
// Lazy is the same stream seeded on demand: Seed is O(1), and each of
// the first 334 draws computes the one or two register words it is the
// first to read. Streams that draw a handful of words — a fault
// injector's, an arbitrary start's — use it; streams that draw
// thousands — the random scheduler's, the count engine's — use Source,
// whose draws carry no per-draw test.
//
// The generator is Mitchell and Reeds' additive lagged Fibonacci
// sequence x[n] = x[n−607] + x[n−273] mod 2⁶⁴. Seeding fills its
// 607-word register from the congruential sequence s[k+1] = 48271·s[k]
// mod 2³¹−1 started at the seed, three terms per word, each word XORed
// with a fixed constant. The constants are math/rand's own: they are
// recovered at start-up from rand.NewSource(1), by undoing its first
// 607 draws, so no table is copied here. Tests hold Source to
// rand.NewSource at fixed and fuzzed seeds.
package rng

import "math/rand"

const (
	length = 607        // register words
	lag    = 273        // the short lag
	mod    = 1<<31 - 1  // the seeding sequence's modulus
	mult   = 48271      // its multiplier
	warmup = 20         // seeding terms discarded before the first word
	zero   = 89482311   // the seed that stands in for 0 (mod 2³¹−1)
	mask63 = 1<<63 - 1  // Int63's mask
	terms  = 3 * length // seeding terms used: three per register word
)

var (
	// cooked holds the constants each seeded register word is XORed
	// with, math/rand's rngCooked.
	cooked [length]int64
	// pow[k] is mult^(warmup+1+k) mod 2³¹−1, so term warmup+1+k of the
	// seeding sequence started at s is s·pow[k] mod 2³¹−1.
	pow [terms]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < warmup; k++ {
		p = p * mult % mod
	}
	for k := range pow {
		p = p * mult % mod
		pow[k] = p
	}

	// With cooked still zero, Seed(1) leaves the register holding the
	// raw seeding words of seed 1. rand.NewSource(1)'s first 607 draws
	// overwrite every register word once; stepping the same two cursors
	// and writing the draws back gives its register after them, and
	// subtracting each draw's other addend in reverse order gives the
	// register it was seeded with. XOR against the raw words leaves
	// the constants.
	var s Source
	s.Seed(1)
	raw := s.vec
	ref := rand.NewSource(1).(rand.Source64)
	var taps, feeds [length]int
	for j := range taps {
		s.advance()
		taps[j], feeds[j] = s.tap, s.feed
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for j := length - 1; j >= 0; j-- {
		s.vec[feeds[j]] -= s.vec[taps[j]]
	}
	for i := range cooked {
		cooked[i] = s.vec[i] ^ raw[i]
	}
}

// Source is math/rand's seeded generator. It implements rand.Source64,
// so rand.New(rng.New(seed)) is rand.New(rand.NewSource(seed)) draw for
// draw; code that only needs 64-bit words calls Uint64 directly. A
// Source is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [length]int64
}

// New returns a Source seeded with seed: the stream of
// rand.NewSource(seed).
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts
// in. Seeds equal modulo 2³¹−1 give the same stream.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - lag
	x := reduce(seed)
	// word(x, i) for every i, written out: word is over the inlining
	// budget, and a call per word costs about a quarter more.
	for i := range s.vec {
		k := 3 * i
		u := int64(mulmod(x, pow[k])) << 40
		u ^= int64(mulmod(x, pow[k+1])) << 20
		u ^= int64(mulmod(x, pow[k+2]))
		s.vec[i] = u ^ cooked[i]
	}
}

// reduce maps a seed to the start of its seeding sequence, in
// [1, 2³¹−1).
func reduce(seed int64) uint64 {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zero
	}
	return uint64(seed)
}

// word returns register word i as seeding from the reduced seed x
// leaves it: three terms of x's seeding sequence, XORed with word i's
// constant.
func word(x uint64, i int) int64 {
	k := 3 * i
	u := int64(mulmod(x, pow[k])) << 40
	u ^= int64(mulmod(x, pow[k+1])) << 20
	u ^= int64(mulmod(x, pow[k+2]))
	return u ^ cooked[i]
}

// mulmod returns x·y mod 2³¹−1 for x, y < 2³¹−1. Since 2³¹ ≡ 1, the
// product's high bits fold onto its low 31; the product is below
// 2⁶² − 2³², so the fold is below 2³² − 2 and one subtraction of the
// modulus completes the reduction.
func mulmod(x, y uint64) uint64 {
	z := x * y
	z = z&mod + z>>31
	if z >= mod {
		z -= mod
	}
	return z
}

// advance steps both cursors back by one word, cyclically.
func (s *Source) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (s *Source) Uint64() uint64 {
	s.advance()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next word with its top bit cleared, as
// rand.Source's Int63 does.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & mask63)
}

// Lazy is Source seeded on demand, for streams that draw a handful of
// words: Seed only records the seed, and each draw computes the
// register words it is the first to read. Draw k (from 0) reads word
// 333−k as its feed and word 606−k as its tap; from draw 273 on the
// tap is a word an earlier draw wrote, and from draw 334 on the feed
// is too, so draw k computes word 333−k and, while k < 273, word 606−k,
// and the 334th draw leaves the whole register computed. A stream of d
// draws then pays for min(2d, 607) words, not 607, and each draw for a
// test of left. Lazy implements rand.Source64.
type Lazy struct {
	src  Source
	x    uint64 // the reduced seed
	left int    // draws that still compute register words
}

// Seed resets the generator to the state rand.NewSource(seed) starts
// in, computing no register word.
func (s *Lazy) Seed(seed int64) {
	s.src.tap = 0
	s.src.feed = length - lag
	s.x = reduce(seed)
	s.left = length - lag
}

// Uint64 returns the next 64-bit word of the stream.
func (s *Lazy) Uint64() uint64 {
	if s.left > 0 {
		s.fill()
	}
	return s.src.Uint64()
}

// fill computes the register words the next draw is the first to read.
func (s *Lazy) fill() {
	k := length - lag - s.left
	s.left--
	s.src.vec[length-lag-1-k] = word(s.x, length-lag-1-k)
	if k < lag {
		s.src.vec[length-1-k] = word(s.x, length-1-k)
	}
}

// Int63 returns the next word with its top bit cleared, as
// rand.Source's Int63 does.
func (s *Lazy) Int63() int64 {
	return int64(s.Uint64() & mask63)
}
