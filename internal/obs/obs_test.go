package obs

import (
	"strings"
	"testing"

	"popnaming/internal/core"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("Gauge = %v, want 2.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("Count = %d, want 9", h.Count())
	}
	if h.Max() != 1024 {
		t.Fatalf("Max = %d, want 1024", h.Max())
	}
	want := []HistBucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 4, Hi: 7, Count: 2},
		{Lo: 8, Hi: 15, Count: 1},
		{Lo: 512, Hi: 1023, Count: 1},
		{Lo: 1024, Hi: 2047, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRuleKeyString(t *testing.T) {
	k := RuleKey{X: 0, Y: 3, X2: 1, Y2: 3}
	if got := k.String(); got != "(0,3)->(1,3)" {
		t.Errorf("String = %q", got)
	}
	l := RuleKey{Leader: true, X: 2, X2: 0}
	if got := l.String(); got != "(L,2)->(L,0)" {
		t.Errorf("String = %q", got)
	}
}

func TestObserverCounts(t *testing.T) {
	o := NewObserver(3, false, ObserverOptions{})
	// Two firings of (0,0)->(1,0), one null, then a quiet tail of 3.
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 1, 0, true)
	o.ObserveMobile(core.Pair{A: 1, B: 2}, 0, 0, 1, 0, true)
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 1, 1, 1, 1, false)
	o.ObserveMobile(core.Pair{A: 2, B: 0}, 1, 1, 1, 1, false)
	o.ObserveMobile(core.Pair{A: 0, B: 2}, 1, 1, 1, 1, false)
	o.Finish(true)

	if o.Steps() != 5 || o.NonNull() != 2 {
		t.Fatalf("Steps=%d NonNull=%d, want 5/2", o.Steps(), o.NonNull())
	}
	rules := o.RuleCounts()
	if len(rules) != 1 || rules[0].Rule != "(0,0)->(1,0)" || rules[0].Count != 2 {
		t.Fatalf("RuleCounts = %v", rules)
	}
	if o.QuietStreaks().Count() != 1 || o.QuietStreaks().Max() != 3 {
		t.Fatalf("quiet streaks: count=%d max=%d, want 1/3",
			o.QuietStreaks().Count(), o.QuietStreaks().Max())
	}
	seen, total := o.PairCoverage()
	if seen != 4 || total != 6 {
		t.Fatalf("PairCoverage = %d/%d, want 4/6", seen, total)
	}
	// Pair (1,0) among others never fired: gap clamps to run length.
	if gap := o.FairnessGap(); gap != 5 {
		t.Fatalf("FairnessGap = %d, want 5", gap)
	}
}

// TestDistinctRulesDedupesRepresentations: a rule fired both before
// CompileRules (map path) and after (dense path) is one distinct rule.
// The old count summed the two representations blindly, so runs that
// switched to the compiled engine mid-stream over-reported
// distinctRules relative to RuleCounts (which merges per rule).
func TestDistinctRulesDedupesRepresentations(t *testing.T) {
	tab := core.MustCompile(core.NewRuleTable("t", 3, 2).
		AddSymmetric(0, 0, 1, 1).
		AddSymmetric(0, 1, 1, 0))
	o := NewObserver(3, false, ObserverOptions{})
	// Map path before the compiled engine is installed.
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 1, 1, true)
	o.CompileRules(tab)
	// Same rule again via the dense path, plus one dense-only rule.
	o.ObserveMobile(core.Pair{A: 0, B: 2}, 0, 0, 1, 1, true)
	o.ObserveMobile(core.Pair{A: 1, B: 2}, 0, 1, 1, 0, true)
	o.Finish(true)

	counts := o.RuleCounts()
	if got, want := o.distinctRules(), len(counts); got != want {
		t.Fatalf("distinctRules = %d, want len(RuleCounts()) = %d", got, want)
	}
	if len(counts) != 2 {
		t.Fatalf("RuleCounts = %v, want 2 merged rules", counts)
	}
	for _, rc := range counts {
		if rc.Rule == "(0,0)->(1,1)" && rc.Count != 2 {
			t.Fatalf("merged count for (0,0)->(1,1) = %d, want 2", rc.Count)
		}
	}
}

func TestObserverLeaderPairs(t *testing.T) {
	o := NewObserver(2, true, ObserverOptions{})
	o.ObserveLeader(core.Pair{A: core.LeaderIndex, B: 0}, 0, 1, true)
	o.ObserveLeader(core.Pair{A: 1, B: core.LeaderIndex}, 0, 0, false)
	o.Finish(false)
	seen, total := o.PairCoverage()
	if seen != 2 || total != 6 {
		t.Fatalf("PairCoverage = %d/%d, want 2/6", seen, total)
	}
	rules := o.RuleCounts()
	if len(rules) != 1 || rules[0].Rule != "(L,0)->(L,1)" {
		t.Fatalf("RuleCounts = %v", rules)
	}
}

func TestObserverFinishIdempotent(t *testing.T) {
	var buf strings.Builder
	sink := NewJournalSink(&buf)
	o := NewObserver(2, false, ObserverOptions{Sink: sink})
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 1, 0, true)
	o.Finish(true)
	o.Finish(true)
	lines := nonEmptyLines(buf.String())
	// One final progress snapshot plus one summary, exactly once.
	if len(lines) != 2 {
		t.Fatalf("emitted %d records, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"type":"progress"`) ||
		!strings.Contains(lines[1], `"type":"summary"`) {
		t.Fatalf("unexpected record order:\n%s", buf.String())
	}
}

func TestObserverProgressEvery(t *testing.T) {
	var buf strings.Builder
	sink := NewJournalSink(&buf)
	o := NewObserver(2, false, ObserverOptions{Sink: sink, ProgressEvery: 2})
	for i := 0; i < 5; i++ {
		o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 0, 0, false)
	}
	o.Finish(false)
	progress := 0
	for _, l := range nonEmptyLines(buf.String()) {
		if strings.Contains(l, `"type":"progress"`) {
			progress++
		}
	}
	// Snapshots at steps 2 and 4, plus the final one from Finish.
	if progress != 3 {
		t.Fatalf("progress records = %d, want 3:\n%s", progress, buf.String())
	}
}

// TestObserveNullsMatchesSingleCalls: a null run observed in bulk
// leaves the same journal — progress and census records at the same
// steps with the same counters, the same quiet-streak histogram — as
// the same run observed one interaction at a time.
func TestObserveNullsMatchesSingleCalls(t *testing.T) {
	// Null-run lengths between non-null interactions; 0 is two non-null
	// interactions back to back.
	runs := []int{0, 3, 1, 7, 0, 12, 2, 5}
	journal := func(bulk bool) []byte {
		var buf strings.Builder
		o := NewObserver(4, false, ObserverOptions{Sink: NewJournalSink(&buf), ProgressEvery: 3, NoPairs: true})
		o.TrackCensus([]int{2, 1, 1})
		for _, k := range runs {
			if bulk {
				o.ObserveNulls(k)
			} else {
				for i := 0; i < k; i++ {
					o.ObserveRule(0, 1, 0, 1, false)
				}
			}
			o.ObserveRule(0, 0, 0, 1, true)
		}
		o.ObserveNulls(4)
		o.Finish(false)
		return Canonical([]byte(buf.String()))
	}
	single, bulk := journal(false), journal(true)
	if string(single) != string(bulk) {
		t.Fatalf("bulk nulls journal differs:\nsingle:\n%s\nbulk:\n%s", single, bulk)
	}
	if n := strings.Count(string(single), `"type":"census"`); n != 15 {
		t.Fatalf("got %d census records, want 15 (one per multiple of 3 in 42 steps, plus Finish's):\n%s", n, single)
	}
}

func TestObserverDump(t *testing.T) {
	o := NewObserver(3, false, ObserverOptions{})
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 1, 0, true)
	o.Finish(true)
	var b strings.Builder
	o.Dump(&b)
	out := b.String()
	for _, want := range []string{"interactions", "fairnessGap", "(0,0)->(1,0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestResolveSeed(t *testing.T) {
	if s, d := ResolveSeed(42); s != 42 || d {
		t.Fatalf("ResolveSeed(42) = %d,%v", s, d)
	}
	s, d := ResolveSeed(0)
	if !d || s == 0 {
		t.Fatalf("ResolveSeed(0) = %d,%v, want derived non-zero", s, d)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestConcurrentScrape is the -race coverage for the concurrency
// guarantees the package documents: metric primitives and
// Observer.Snapshot are readable while a single writer mutates them.
// Run under the race detector (make race) this fails on any
// unsynchronized access; the assertions additionally pin the live
// snapshot contract: scrapes are monotone and internally consistent,
// a mid-run scrape lands on a publish boundary (a multiple of 2¹⁴
// interactions), and a scrape after Finish is exact.
func TestConcurrentScrape(t *testing.T) {
	const steps = 100_000 // not a multiple of 2¹⁴: only Finish publishes it
	o := NewObserver(8, false, ObserverOptions{})
	var h Histogram
	var c Counter
	var g Gauge
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			o.ObserveMobile(core.Pair{A: i % 8, B: (i + 3) % 8}, 0, 0, 0, 1, i%5 == 0)
			h.Observe(int64(i % 1024))
			c.Inc()
			g.Set(float64(i))
		}
		o.Finish(false)
	}()
	var lastSteps uint64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		snap := o.Snapshot()
		if snap.Steps < lastSteps {
			t.Fatalf("scraped steps went backwards: %d -> %d", lastSteps, snap.Steps)
		}
		lastSteps = snap.Steps
		if snap.NonNull > snap.Steps {
			t.Fatalf("nonNull %d exceeds steps %d", snap.NonNull, snap.Steps)
		}
		if snap.Steps != steps {
			if snap.Steps%publishEvery != 0 {
				t.Fatalf("mid-run scrape at step %d, not a multiple of %d", snap.Steps, publishEvery)
			}
			if got := snap.NonNull + uint64(snap.QuietStreaks.Sum+snap.Quiet); got != snap.Steps {
				t.Fatalf("inconsistent scrape: nonNull+streaks+quiet = %d, steps %d", got, snap.Steps)
			}
		}
		_ = h.Snapshot()
		_ = h.Mean()
		_ = c.Value()
		_ = g.Value()
	}
	final := o.Snapshot()
	if final.Steps != steps || final.NonNull != steps/5 {
		t.Fatalf("final steps/nonNull = %d/%d, want %d/%d", final.Steps, final.NonNull, steps, steps/5)
	}
	if c.Value() != steps || h.Count() != steps {
		t.Fatalf("counter %d / histogram count %d, want %d", c.Value(), h.Count(), steps)
	}
	if g.Value() != float64(steps-1) {
		t.Fatalf("gauge = %v, want %v", g.Value(), float64(steps-1))
	}
}

// TestHistogramSnapshot pins the snapshot copy against the live reads.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 5, 5, 900} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Max != 900 || s.Mean != h.Mean() || len(s.Buckets) != len(h.Buckets()) {
		t.Fatalf("snapshot %+v disagrees with live histogram", s)
	}
}
