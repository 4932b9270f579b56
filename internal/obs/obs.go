// Package obs is the observability layer of the simulation engine:
// typed counters, gauges and log-scale histograms; a Sink abstraction
// with a JSONL run-journal writer (one versioned JSON object per line,
// replayable and diffable across runs); and a per-run Observer that the
// engine feeds with every interaction to produce per-rule fire counts,
// quiet-streak statistics, scheduler pair-coverage/fairness-gap gauges,
// periodic progress snapshots and a final summary record.
//
// The layer is stdlib-only and is designed around a guaranteed fast
// path: a sim.Runner whose Obs field is nil pays exactly one nil check
// per interaction and allocates nothing (see BenchmarkRunnerObsOverhead
// in internal/sim). The journal schema is documented in
// docs/observability.md.
//
// # Concurrency
//
// The metric primitives — Counter, Gauge, Histogram — are safe for
// concurrent use: every write is a single atomic operation and every
// read a single atomic load, so a scraper (the ppserved /metrics
// endpoint) can read them while a run mutates them, data-race free.
// Reads of different fields of one Histogram (Count vs Buckets vs Max)
// are individually atomic but not taken under one lock, so a scrape
// concurrent with Observe may see a bucket increment before the count
// it belongs to; totals are exact once the writer is quiescent. The
// fields are plain integers updated through sync/atomic functions (not
// atomic.Int64 values) so that the types stay copyable by value once
// the writer has finished — sim.BatchSummary embeds a Histogram.
//
// Observer is single-writer: while the run is live only the goroutine
// driving it may call its methods, and its Observe*/Finish/Set* methods
// write plain fields (no atomics on the per-interaction path). The one
// concurrent window into a live Observer is Snapshot. It reads a copy of the interaction counters and the
// quiet-streak histogram that the writer refreshes under a mutex,
// without allocating, whenever its step count reaches a multiple of
// 2¹⁴ (bulk null runs included), at every progress emission and at
// Finish. A live snapshot is therefore consistent but lags the writer
// by fewer than 2¹⁴ interactions, and is exact once Finish has run.
package obs

import (
	"cmp"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"

	"popnaming/internal/core"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use (atomic writes and reads).
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { atomic.AddUint64((*uint64)(c), 1) }

// Add adds d.
func (c *Counter) Add(d uint64) { atomic.AddUint64((*uint64)(c), d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return atomic.LoadUint64((*uint64)(c)) }

// Gauge is a point-in-time float64 measurement, safe for concurrent
// use (the value is stored as its IEEE-754 bits behind atomic
// load/store). The zero value reads 0.
type Gauge struct {
	bits uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Histogram counts int64 observations in log2-scale buckets: bucket 0
// holds values <= 0 and bucket k >= 1 holds values in [2^(k-1), 2^k).
// The zero value is ready to use. Observe and all read methods are
// safe for concurrent use (see the package Concurrency notes for the
// cross-field consistency caveat).
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     int64
	max     int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	atomic.AddUint64(&h.buckets[idx], 1)
	atomic.AddUint64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	for {
		old := atomic.LoadInt64(&h.max)
		if v <= old || atomic.CompareAndSwapInt64(&h.max, old, v) {
			return
		}
	}
}

// add is Observe with plain writes, for a histogram that only its
// writer touches while it is live: the Observer's quiet-streak
// histogram, which concurrent scrapes read through a published copy.
func (h *Histogram) add(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	h.max = max(h.max, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.count) }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	count := atomic.LoadUint64(&h.count)
	if count == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&h.sum)) / float64(count)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// hold, marshal and render after the scrape.
type HistogramSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     int64        `json:"sum"`
	Mean    float64      `json:"mean"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot returns a copy of the histogram's current state, read with
// atomic loads so it is safe against a concurrent writer.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Mean:    h.Mean(),
		Max:     h.Max(),
		Buckets: h.Buckets(),
	}
}

// HistBucket is one non-empty histogram bucket covering [Lo, Hi].
type HistBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order, in a
// slice allocated at its final size.
func (h *Histogram) Buckets() []HistBucket {
	var counts [len(h.buckets)]uint64
	n := 0
	for k := range h.buckets {
		if counts[k] = atomic.LoadUint64(&h.buckets[k]); counts[k] != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]HistBucket, 0, n)
	for k, c := range counts {
		if c == 0 {
			continue
		}
		b := HistBucket{Count: c}
		if k > 0 {
			b.Lo = 1 << (k - 1)
			b.Hi = 1<<k - 1
		}
		out = append(out, b)
	}
	return out
}

// RuleKey identifies one concrete transition-rule firing. For
// mobile-mobile interactions it is the full rule (x,y) -> (x',y');
// leader-mobile interactions are keyed by the mobile peer's transition
// only (the leader state space is unbounded), with Leader set and Y/Y2
// unused.
type RuleKey struct {
	Leader bool
	X, Y   core.State
	X2, Y2 core.State
}

// String renders the rule as "(x,y)->(x',y')", or "(L,x)->(L,x')" for
// a leader rule.
func (k RuleKey) String() string {
	var buf [32]byte
	return string(k.appendText(buf[:0]))
}

// appendText appends the rule's String form to b.
func (k RuleKey) appendText(b []byte) []byte {
	b = append(b, '(')
	if k.Leader {
		b = append(b, "L,"...)
		b = strconv.AppendInt(b, int64(k.X), 10)
		b = append(b, ")->(L,"...)
		b = strconv.AppendInt(b, int64(k.X2), 10)
	} else {
		b = strconv.AppendInt(b, int64(k.X), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(k.Y), 10)
		b = append(b, ")->("...)
		b = strconv.AppendInt(b, int64(k.X2), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(k.Y2), 10)
	}
	return append(b, ')')
}

// compare orders keys by Leader (mobile rules first), then X, Y, X2
// and Y2: the order of a compiled table's flat index for mobile rules.
func (k RuleKey) compare(l RuleKey) int {
	switch {
	case k.Leader != l.Leader:
		if l.Leader {
			return -1
		}
		return 1
	case k.X != l.X:
		return cmp.Compare(k.X, l.X)
	case k.Y != l.Y:
		return cmp.Compare(k.Y, l.Y)
	case k.X2 != l.X2:
		return cmp.Compare(k.X2, l.X2)
	}
	return cmp.Compare(k.Y2, l.Y2)
}

// RuleCount pairs a rendered rule with its fire count, for summary
// records and exposition tables.
type RuleCount struct {
	Rule  string `json:"rule"`
	Count uint64 `json:"count"`
}
