package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/report"
)

// maxTrackedPairs caps the dense per-pair last-seen table; beyond it
// (about 2k agents) pair coverage and fairness-gap gauges are disabled
// rather than spending O(n^2) memory per run.
const maxTrackedPairs = 1 << 22

// publishEvery is the period, in interactions, at which the writer
// refreshes the copy that Snapshot reads: the engines' interrupt-poll
// period, so a scrape taken at a poll sees the poll's own step count.
const publishEvery = 1 << 14

// ObserverOptions configures an Observer.
type ObserverOptions struct {
	// Sink, when non-nil, receives progress snapshots and the final
	// summary record.
	Sink Sink
	// ProgressEvery emits a progress record every k interactions
	// (0: only the final snapshot emitted by Finish).
	ProgressEvery int
	// Trial tags every emitted record with a batch trial index
	// (0 for single runs).
	Trial int
	// NoPairs disables the per-pair last-seen table regardless of
	// population size. The count engine sets it: count-space runs have
	// no agent identities to track, and at its populations (up to 2³²)
	// even computing the table size would overflow.
	NoPairs bool
}

// Observer accumulates the metrics of one execution: interaction and
// non-null counters, per-rule fire counts, quiet-streak statistics, and
// scheduler pair-coverage/fairness gauges. It is fed by sim.Runner
// through its Obs field (the count engine through the identity-free
// ObserveRule methods) and is single-writer: while the run is live only
// the goroutine driving it may call its methods, and the mutating ones
// write plain fields with no atomics. Reset starts a new execution on
// the same Observer, keeping its rule map, pair table and dense rule
// table for reuse: a batch worker owns one Observer and resets it for
// each of its trials, all sharing one concurrency-safe Sink, and every
// record it emits owns its memory. The one method safe to call from
// another goroutine during a live run is Snapshot, which reads a copy
// of the counters that the writer publishes under a mutex every
// publishEvery interactions, at every progress emission and at Finish.
type Observer struct {
	sink          Sink
	progressEvery uint64
	trial         int
	n             int
	lo, m         int
	start         time.Time
	finished      bool

	steps   uint64
	nonNull uint64
	quiet   int64
	rules   map[RuleKey]uint64

	// next is the step count of the next boundary, the earlier of
	// nextProgress and the next multiple of publishEvery: the hot path
	// compares against it instead of taking a modulo per interaction.
	next         uint64
	nextProgress uint64 // math.MaxUint64 when no progress is emitted

	// Dense per-rule accounting for the compiled engine: fire counts
	// keyed by the transition-table index initiator*|Q|+responder, with
	// the right-hand sides reconstructed from the table on read. The
	// table is in use while rulesDense is non-empty; Reset empties it
	// and keeps its array for the next CompileRules.
	ruleTab    *core.Compiled
	rulesDense []uint64

	quietHist Histogram

	forced      int64
	validNaming *bool

	pairTrack bool
	lastSeen  []int64
	pairsSeen int

	// censusCounts, when set by TrackCensus, is the live occupancy
	// vector of a count-engine run; every progress emission is followed
	// by a census record snapshotting it.
	censusCounts []int

	// mu guards pub, the copy of the counters that Snapshot reads.
	mu  sync.Mutex
	pub published
}

// published is the part of an Observer that a concurrent scrape may
// read, as of the writer's last publish.
type published struct {
	steps, nonNull uint64
	quiet          int64
	quietHist      Histogram
}

// NewObserver returns an observer for a population of n mobile agents
// (plus a leader when withLeader is set).
func NewObserver(n int, withLeader bool, opts ObserverOptions) *Observer {
	o := new(Observer)
	o.Reset(n, withLeader, opts)
	return o
}

// Reset makes o the observer NewObserver(n, withLeader, opts) returns,
// reusing the memory of its rule map, pair table and dense rule table.
// Like every method but Snapshot, it must not race with a scrape.
func (o *Observer) Reset(n int, withLeader bool, opts ObserverOptions) {
	lo := 0
	if withLeader {
		lo = -1
	}
	m := n - lo
	rules := o.rules
	if rules == nil {
		rules = make(map[RuleKey]uint64)
	}
	clear(rules)
	*o = Observer{
		sink:         opts.Sink,
		trial:        opts.Trial,
		n:            n,
		lo:           lo,
		m:            m,
		start:        time.Now(),
		rules:        rules,
		nextProgress: math.MaxUint64,
		rulesDense:   o.rulesDense[:0],
		lastSeen:     o.lastSeen[:0],
	}
	if opts.ProgressEvery > 0 {
		o.progressEvery = uint64(opts.ProgressEvery)
		if o.sink != nil {
			o.nextProgress = o.progressEvery
		}
	}
	o.next = min(o.nextProgress, publishEvery)
	// m ≤ 2¹¹ implies m·m ≤ maxTrackedPairs; testing m first keeps the
	// product from overflowing at count-engine populations.
	if !opts.NoPairs && m <= 1<<11 && m*m <= maxTrackedPairs {
		o.pairTrack = true
		o.lastSeen = slices.Grow(o.lastSeen, m*m)[:m*m]
		for i := range o.lastSeen {
			o.lastSeen[i] = -1
		}
	}
}

// Steps returns the number of observed interactions.
func (o *Observer) Steps() uint64 { return o.steps }

// NonNull returns the number of observed state-changing interactions.
func (o *Observer) NonNull() uint64 { return o.nonNull }

// QuietStreaks returns the histogram of completed all-null streak
// lengths (Finish flushes the trailing streak).
func (o *Observer) QuietStreaks() *Histogram { return &o.quietHist }

// ObserverSnapshot is a point-in-time scrape of a live run: the
// interaction counters and the quiet-streak statistics as the writer
// last published them. Rule counts, pair coverage and fairness gaps are
// single-writer state and are not included.
type ObserverSnapshot struct {
	// Steps and NonNull are the interaction counters.
	Steps   uint64 `json:"steps"`
	NonNull uint64 `json:"nonNull"`
	// Quiet is the current all-null streak length.
	Quiet int64 `json:"quiet"`
	// QuietStreaks is the completed-streak histogram so far.
	QuietStreaks HistogramSnapshot `json:"quietStreaks"`
}

// Snapshot scrapes the observer's published counters. Unlike every
// other Observer method it is safe to call concurrently with the run
// that is feeding the observer — the ppserved /metrics endpoint scrapes
// live jobs through it. A live snapshot is consistent (all its fields
// come from one publish) but lags the writer by fewer than 2¹⁴
// interactions: the writer publishes when its step count reaches a
// multiple of 2¹⁴, at every progress emission and at Finish, so a
// snapshot taken after Finish is exact.
func (o *Observer) Snapshot() ObserverSnapshot {
	o.mu.Lock()
	p := o.pub
	o.mu.Unlock()
	return ObserverSnapshot{
		Steps:        p.steps,
		NonNull:      p.nonNull,
		Quiet:        p.quiet,
		QuietStreaks: p.quietHist.Snapshot(),
	}
}

// publish refreshes the copy Snapshot reads. It copies fixed-size
// values only, so it allocates nothing.
func (o *Observer) publish() {
	o.mu.Lock()
	o.pub.steps, o.pub.nonNull, o.pub.quiet = o.steps, o.nonNull, o.quiet
	o.pub.quietHist = o.quietHist
	o.mu.Unlock()
}

// SetForced records the number of interactions a fairness-enforcing
// scheduler forced, surfaced in the summary record so adversarial runs
// are auditable like scheduler runs. Call it before Finish; sim.Runner
// does so for any scheduler with a Forced method.
func (o *Observer) SetForced(n int64) { o.forced = n }

// SetValidNaming records whether the run's final configuration is a
// valid naming, for the summary record. Call it before Finish; both
// engines do.
func (o *Observer) SetValidNaming(v bool) { o.validNaming = &v }

// CompileRules switches mobile per-rule accounting to a dense counter
// array keyed by tab's flat table index, removing the map operation
// from the hot loop. sim.Runner calls it when it installs a compiled
// engine; RuleCounts merges both representations. The array of an
// earlier run since Reset is reused when it is large enough.
func (o *Observer) CompileRules(tab *core.Compiled) {
	if o.ruleTab == tab {
		return
	}
	q := tab.States()
	o.ruleTab = tab
	o.rulesDense = slices.Grow(o.rulesDense[:0], q*q)[:q*q]
	clear(o.rulesDense)
}

// ObserveMobile records a mobile-mobile interaction with its before and
// after states: ObserveRule plus the pair's coverage and fairness gauges.
func (o *Observer) ObserveMobile(p core.Pair, x, y, x2, y2 core.State, changed bool) {
	o.trackPair(p)
	o.ObserveRule(x, y, x2, y2, changed)
}

// ObserveLeader records a leader-mobile interaction; x and x2 are the
// mobile peer's before and after states.
func (o *Observer) ObserveLeader(p core.Pair, x, x2 core.State, changed bool) {
	o.trackPair(p)
	o.ObserveLeaderRule(x, x2, changed)
}

// trackPair records that pair p interacts at the current step, for the
// pair-coverage and fairness-gap gauges.
func (o *Observer) trackPair(p core.Pair) {
	if !o.pairTrack {
		return
	}
	if idx := (p.A-o.lo)*o.m + (p.B - o.lo); idx >= 0 && idx < len(o.lastSeen) {
		if o.lastSeen[idx] < 0 {
			o.pairsSeen++
		}
		o.lastSeen[idx] = int64(o.steps)
	}
}

// ObserveRule records a mobile-mobile interaction by its states alone —
// the count engine's identity-free analogue of ObserveMobile. It
// requires CompileRules to have installed the dense rule table.
func (o *Observer) ObserveRule(x, y, x2, y2 core.State, changed bool) {
	if changed {
		if len(o.rulesDense) > 0 {
			o.rulesDense[o.ruleTab.Idx(x, y)]++
		} else {
			o.rules[RuleKey{X: x, Y: y, X2: x2, Y2: y2}]++
		}
	}
	o.observeStep(changed)
}

// ObserveLeaderRule records a leader-mobile interaction by the mobile
// peer's before/after states — the identity-free ObserveLeader.
func (o *Observer) ObserveLeaderRule(x, x2 core.State, changed bool) {
	if changed {
		o.rules[RuleKey{Leader: true, X: x, X2: x2}]++
	}
	o.observeStep(changed)
}

// ObserveNulls records k consecutive null interactions at once — the
// count engine's bulk form of k null Observe* calls. Counters, the quiet
// streak, every progress (and census) record and every publish come out
// exactly as the k single calls would leave and emit them.
func (o *Observer) ObserveNulls(k int) {
	for k > 0 {
		d := min(uint64(k), o.next-o.steps)
		o.steps += d
		o.quiet += int64(d)
		k -= int(d)
		if o.steps == o.next {
			o.boundary()
		}
	}
}

// TrackCensus attaches a live occupancy vector: every progress emission
// (and Finish) is then followed by a census record snapshotting the
// per-state counts. The slice is read, never written; the caller must
// be the single goroutine driving the observer.
func (o *Observer) TrackCensus(counts []int) { o.censusCounts = counts }

// observeStep advances the interaction counters and quiet streak and
// handles a due boundary — the shared tail of every Observe* method.
func (o *Observer) observeStep(changed bool) {
	o.steps++
	if changed {
		o.nonNull++
		if o.quiet > 0 {
			o.quietHist.add(o.quiet)
			o.quiet = 0
		}
	} else {
		o.quiet++
	}
	if o.steps == o.next {
		o.boundary()
	}
}

// boundary runs when the step count reaches next: it emits the due
// progress record, publishes the scrape copy and schedules the next
// boundary.
func (o *Observer) boundary() {
	if o.steps == o.nextProgress {
		o.nextProgress += o.progressEvery
		o.emitProgress(o.FairnessGap())
	}
	o.publish()
	o.next = min(o.nextProgress, o.steps&^(publishEvery-1)+publishEvery)
}

// emitProgress emits a progress snapshot with the given fairness gap,
// followed by a census record when a count-engine occupancy vector is
// attached.
func (o *Observer) emitProgress(gap int64) {
	_ = o.sink.Emit(o.snapshot(gap))
	if o.censusCounts != nil {
		counts := make([]int, len(o.censusCounts))
		copy(counts, o.censusCounts)
		_ = o.sink.Emit(CensusRec{
			V:      Version,
			Type:   "census",
			Trial:  o.trial,
			Step:   o.steps,
			Counts: counts,
		})
	}
}

// pairsTotal returns the number of schedulable ordered pairs (0 when
// pair tracking is disabled).
func (o *Observer) pairsTotal() int {
	if !o.pairTrack {
		return 0
	}
	return o.m * (o.m - 1)
}

// FairnessGap returns the largest number of steps any schedulable pair
// has gone without interacting (never-seen pairs count from step 0), or
// -1 when pair tracking is disabled.
func (o *Observer) FairnessGap() int64 {
	if !o.pairTrack {
		return -1
	}
	steps := int64(o.steps)
	var max int64
	for a := 0; a < o.m; a++ {
		row := o.lastSeen[a*o.m : (a+1)*o.m]
		for b, last := range row {
			if a == b {
				continue
			}
			if g := steps - last; g > max {
				max = g
			}
		}
	}
	// A never-seen pair has last = -1, giving steps+1; clamp to the
	// run length.
	if max > steps {
		max = steps
	}
	return max
}

// PairCoverage returns distinct schedulable pairs seen and the total
// (both 0 when pair tracking is disabled).
func (o *Observer) PairCoverage() (seen, total int) {
	return o.pairsSeen, o.pairsTotal()
}

func (o *Observer) snapshot(gap int64) Progress {
	return Progress{
		V:           Version,
		Type:        "progress",
		Trial:       o.trial,
		Step:        o.steps,
		NonNull:     o.nonNull,
		Quiet:       o.quiet,
		PairsSeen:   o.pairsSeen,
		PairsTotal:  o.pairsTotal(),
		FairnessGap: gap,
		ElapsedNS:   time.Since(o.start).Nanoseconds(),
	}
}

// distinctRules returns the number of distinct non-null rules fired,
// across both the map and dense representations.
func (o *Observer) distinctRules() int { return len(o.ruleFires()) }

// ruleFire is one rule with its fire count; textLen is the length of
// its text once RuleCounts has rendered it.
type ruleFire struct {
	key     RuleKey
	count   uint64
	textLen int
}

// ruleFires returns every non-null rule fired, once, with its count
// merged over the map and dense representations: a run can touch both
// (leader rules stay in the map, and so do mobile rules fired before
// CompileRules switched to the dense array). The dense rules come
// first, in table order, which is key order, so a map rule finds its
// dense twin by binary search.
func (o *Observer) ruleFires() []ruleFire {
	n := len(o.rules)
	for _, c := range o.rulesDense {
		if c != 0 {
			n++
		}
	}
	fires := make([]ruleFire, 0, n)
	for idx, c := range o.rulesDense {
		if c == 0 {
			continue
		}
		q := o.ruleTab.States()
		x2, y2 := o.ruleTab.At(idx)
		fires = append(fires, ruleFire{key: RuleKey{X: core.State(idx / q), Y: core.State(idx % q), X2: x2, Y2: y2}, count: c})
	}
	dense := len(fires)
	for k, c := range o.rules {
		if i, ok := slices.BinarySearchFunc(fires[:dense], k, func(f ruleFire, k RuleKey) int { return f.key.compare(k) }); ok {
			fires[i].count += c
		} else {
			fires = append(fires, ruleFire{key: k, count: c})
		}
	}
	return fires
}

// RuleCounts returns the non-null rule firings, most frequent first
// with ties broken by rule text (deterministic for fixed seeds). Counts
// from the map and dense representations are merged per rule. The
// texts of all the rules share one string, so the list costs three
// allocations however many rules it has.
func (o *Observer) RuleCounts() []RuleCount {
	fires := o.ruleFires()
	var scratch [32]byte
	size := 0
	for i := range fires {
		fires[i].textLen = len(fires[i].key.appendText(scratch[:0]))
		size += fires[i].textLen
	}
	var text strings.Builder
	text.Grow(size)
	for _, f := range fires {
		text.Write(f.key.appendText(scratch[:0]))
	}
	all := text.String()
	out := make([]RuleCount, len(fires))
	for i, f := range fires {
		out[i] = RuleCount{Rule: all[:f.textLen], Count: f.count}
		all = all[f.textLen:]
	}
	slices.SortFunc(out, func(a, b RuleCount) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.Rule, b.Rule)
	})
	return out
}

// Finish closes the run: it folds the trailing quiet streak into the
// streak histogram, publishes the final counters to Snapshot and, when
// a sink is attached, emits a final progress snapshot followed by the
// summary record. It is idempotent; sim.Runner calls it automatically
// at the end of Run.
func (o *Observer) Finish(converged bool) {
	if o.finished {
		return
	}
	o.finished = true
	// The final snapshot and the summary are taken at one step, so
	// they share one scan of the pair table.
	var gap int64
	if o.sink != nil {
		gap = o.FairnessGap()
		o.emitProgress(gap)
	}
	if o.quiet > 0 {
		o.quietHist.add(o.quiet)
	}
	o.publish()
	if o.sink != nil {
		_ = o.sink.Emit(o.summary(converged, gap))
	}
}

func (o *Observer) summary(converged bool, gap int64) Summary {
	par := 0.0
	if o.n > 0 {
		par = float64(o.steps) / float64(o.n)
	}
	return Summary{
		V:            Version,
		Type:         "summary",
		Trial:        o.trial,
		Converged:    converged,
		Steps:        o.steps,
		NonNull:      o.nonNull,
		ParallelTime: par,
		MaxQuiet:     o.quietHist.Max(),
		QuietStreaks: o.quietHist.Buckets(),
		PairsSeen:    o.pairsSeen,
		PairsTotal:   o.pairsTotal(),
		FairnessGap:  gap,
		Rules:        o.RuleCounts(),
		Forced:       o.forced,
		ValidNaming:  o.validNaming,
		ElapsedNS:    time.Since(o.start).Nanoseconds(),
	}
}

// KV is one named metric value of the flat (expvar-style) exposition.
type KV struct {
	Name, Value string
}

// Vars returns the scalar metrics as ordered name/value pairs.
func (o *Observer) Vars() []KV {
	steps, nonNull := o.steps, o.nonNull
	nullFrac := 0.0
	if steps > 0 {
		nullFrac = 1 - float64(nonNull)/float64(steps)
	}
	elapsed := time.Since(o.start)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(steps) / s
	}
	seen, total := o.PairCoverage()
	coverage := "n/a"
	if total > 0 {
		coverage = fmt.Sprintf("%.1f%%", 100*float64(seen)/float64(total))
	}
	return []KV{
		{"interactions", fmt.Sprintf("%d", steps)},
		{"nonNull", fmt.Sprintf("%d", nonNull)},
		{"nullFraction", fmt.Sprintf("%.4f", nullFrac)},
		{"distinctRules", fmt.Sprintf("%d", o.distinctRules())},
		{"quietStreaks", fmt.Sprintf("%d", o.quietHist.Count())},
		{"quietStreakMean", fmt.Sprintf("%.1f", o.quietHist.Mean())},
		{"quietStreakMax", fmt.Sprintf("%d", o.quietHist.Max())},
		{"pairsSeen", fmt.Sprintf("%d/%d", seen, total)},
		{"pairCoverage", coverage},
		{"fairnessGap", fmt.Sprintf("%d", o.FairnessGap())},
		{"elapsed", elapsed.Round(time.Microsecond).String()},
		{"interactionsPerSec", fmt.Sprintf("%.0f", rate)},
	}
}

// MetricsTable renders the scalar metrics as an aligned table.
func (o *Observer) MetricsTable() *report.Table {
	t := report.NewTable("run metrics", "metric", "value")
	for _, kv := range o.Vars() {
		t.AddRow(kv.Name, kv.Value)
	}
	return t
}

// RulesTable renders the most frequent rule firings (all of them when
// limit <= 0).
func (o *Observer) RulesTable(limit int) *report.Table {
	t := report.NewTable("rule firings (non-null)", "rule", "fires", "share")
	counts := o.RuleCounts()
	if limit > 0 && len(counts) > limit {
		counts = counts[:limit]
	}
	for _, rc := range counts {
		share := 0.0
		if nn := o.nonNull; nn > 0 {
			share = 100 * float64(rc.Count) / float64(nn)
		}
		t.AddRow(rc.Rule, fmt.Sprintf("%d", rc.Count), fmt.Sprintf("%.1f%%", share))
	}
	return t
}

// Dump writes the text exposition: the metrics table followed by the
// top rule firings.
func (o *Observer) Dump(w io.Writer) {
	o.MetricsTable().Render(w)
	fmt.Fprintln(w)
	o.RulesTable(16).Render(w)
}
