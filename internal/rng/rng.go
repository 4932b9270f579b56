// Package rng is a bit-exact copy of math/rand's seeded generator, the
// source rand.NewSource returns, as a concrete type: the same seed gives
// the same stream, draw for draw, so every seeded run keeps its journal,
// digest and output. It differs in cost only. Uint64 is a direct call
// the compiler can inline, where a rand.Source64 draw is an interface
// call, and seeding computes the 1,821 terms of the seed's congruential
// sequence it uses by jump-ahead, each one multiplication by a power
// from a table, instead of stepping a chain of 1,841 dependent steps.
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

import (
	"math/rand"
	"sync"
)

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

// released holds the generators owners gave back with Put.
var released = sync.Pool{New: func() any { return new(Source) }}

// Get returns a Source seeded with seed, as New does, but reuses the
// state of one an earlier owner released with Put: a short trial's
// generator state is most of what the trial allocates.
func Get(seed int64) *Source {
	s := released.Get().(*Source)
	s.Seed(seed)
	return s
}

// Put releases s for reuse by Get. The caller must not draw from s
// afterwards.
func Put(s *Source) { released.Put(s) }

// Seed resets the generator to the state rand.NewSource(seed) starts
// in. Seeds equal modulo 2³¹−1 give the same stream.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - lag
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = zero
	}
	x := uint64(seed)
	for i := range s.vec {
		k := 3 * i
		u := int64(mulmod(x, pow[k])) << 40
		u ^= int64(mulmod(x, pow[k+1])) << 20
		u ^= int64(mulmod(x, pow[k+2]))
		s.vec[i] = u ^ cooked[i]
	}
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
