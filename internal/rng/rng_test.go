package rng

import (
	"math"
	"math/rand"
	"testing"
)

// pinSeeds cover seed reduction modulo 2³¹−1: 0 and its multiples
// (which stand in for 89482311), negatives, the modulus's neighbours
// and the most negative int64.
var pinSeeds = []int64{0, 1, -1, math.MaxInt32, 2 * math.MaxInt32, 1 << 31, math.MinInt64, 89482311}

// TestSourceMatchesMathRand: at every pinned seed, Source draws the
// stream of rand.NewSource word for word, through Uint64 and Int63 and
// through a rand.Rand wrapped around each.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 20000
	for _, seed := range pinSeeds {
		ref, got := rand.NewSource(seed).(rand.Source64), New(seed)
		for i := 0; i < draws; i++ {
			if i%3 == 2 {
				if w, g := ref.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
				}
				continue
			}
			if w, g := ref.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		}

		ref2, got2 := rand.New(rand.NewSource(seed)), rand.New(New(seed))
		for i := 0; i < draws/4; i++ {
			if w, g := ref2.Intn(1000003), got2.Intn(1000003); w != g {
				t.Fatalf("seed %d: Intn draw %d = %d, want %d", seed, i, g, w)
			}
			if w, g := ref2.Float64(), got2.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
			if w, g := ref2.Uint64(), got2.Uint64(); w != g {
				t.Fatalf("seed %d: Rand.Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		w, g := ref2.Perm(500), got2.Perm(500)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seed %d: Perm differs at %d: %d, want %d", seed, i, g[i], w[i])
			}
		}
	}
}

// TestSeedResets: Seed on a source that has drawn restarts the stream,
// as on rand.NewSource's.
func TestSeedResets(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(-42)
	ref := rand.NewSource(-42).(rand.Source64)
	for i := 0; i < 2*length; i++ {
		if w, g := ref.Uint64(), s.Uint64(); w != g {
			t.Fatalf("reseeded draw %d = %d, want %d", i, g, w)
		}
	}
}

// TestGetReseedsReleased: Get answers with New's stream even when it
// hands back a source an owner released mid-stream.
func TestGetReseedsReleased(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	Put(s)
	got, ref := Get(-42), New(-42)
	for i := 0; i < 2*length; i++ {
		if w, g := ref.Uint64(), got.Uint64(); w != g {
			t.Fatalf("draw %d = %d, want %d", i, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand: any int64 seed draws rand.NewSource's
// stream for 1,000 words.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range pinSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref, got := rand.NewSource(seed).(rand.Source64), New(seed)
		for i := 0; i < 1000; i++ {
			if w, g := ref.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, g, w)
			}
		}
	})
}

var sinkSrc rand.Source64

// BenchmarkSeed prices one seeded source on the heap, as a runner holds
// it, against math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSrc = New(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSrc = rand.NewSource(int64(i)).(rand.Source64)
		}
	})
}
