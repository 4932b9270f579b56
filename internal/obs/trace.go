package obs

import (
	"fmt"
	"time"
)

// Tracing: a stdlib-only span layer over the journal. A trace is a tree
// of named, timed spans journaled as v1 "span" records into any Sink
// (a file journal, a ppserved result stream). Span identity is fully
// deterministic: the trace ID derives from the resolved run seed and
// every span ID derives from (trace, parent, name, index), so two runs
// of the same seeded job produce byte-identical span trees — IDs
// included — modulo the wall-clock fields (durNs, queueWaitNs). Only
// the durations are nondeterministic, never the structure.
//
// The layer follows the obs fast-path discipline: a zero SpanContext is
// disabled, Start on it returns nil, and every *Span method is
// nil-tolerant, so call sites pay one branch and zero allocations when
// tracing is off (see BenchmarkSupervisedNilTrace in internal/sim).

// TraceID identifies one trace (one traced job). It renders as 16 hex
// digits.
type TraceID uint64

// SpanID identifies one span within a trace. It renders as 16 hex
// digits.
type SpanID uint64

func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }
func (s SpanID) String() string  { return fmt.Sprintf("%016x", uint64(s)) }

// Mix64 is the splitmix64 finalizer, the repo-wide mixing primitive:
// trace and span IDs here, sim.DeriveSeed's per-trial seeds, the fault
// injector's seed folding and the lease-backoff jitter in dist.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64a is the 64-bit FNV-1a hash of s.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NewTraceID derives the trace ID for a run from its resolved seed.
// The derivation is deterministic and never returns zero, so a
// same-seed resubmission carries the same trace ID.
func NewTraceID(seed int64) TraceID {
	z := Mix64(uint64(seed))
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return TraceID(z)
}

// DeriveSpanID derives a span ID from its position in the trace tree:
// the trace, the parent span (0 for roots), the span name and the
// child index among same-named siblings. Structural derivation — no
// counters, no randomness — is what keeps span trees byte-identical
// across same-seed runs regardless of worker interleaving.
func DeriveSpanID(trace TraceID, parent SpanID, name string, index int) SpanID {
	z := Mix64(uint64(trace) ^ uint64(parent))
	z = Mix64(z ^ fnv64a(name))
	z = Mix64(z ^ uint64(index)*0x9e3779b97f4a7c15)
	if z == 0 {
		z = 1
	}
	return SpanID(z)
}

// SpanContext is a position in a trace tree: the trace, the enclosing
// span (0 at the root) and the sink span records are journaled to. It
// is a small value, copied freely (sim.Supervision carries one). The
// zero value is disabled.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
	Sink  Sink
}

// Enabled reports whether spans started from this context are
// recorded.
func (sc SpanContext) Enabled() bool { return sc.Sink != nil && sc.Trace != 0 }

// Start begins a child span. index disambiguates same-named siblings
// (trial number, attempt number, slice number); the derived ID is
// deterministic, see DeriveSpanID. On a disabled context Start returns
// nil, and every *Span method is safe on nil, so call sites need no
// branching beyond an optional Enabled gate.
func (sc SpanContext) Start(name string, index int) *Span {
	if !sc.Enabled() {
		return nil
	}
	return &Span{
		sc: SpanContext{
			Trace: sc.Trace,
			Span:  DeriveSpanID(sc.Trace, sc.Span, name, index),
			Sink:  sc.Sink,
		},
		parent: sc.Span,
		name:   name,
		start:  time.Now(),
	}
}

// Span is one live span: started, annotated, then ended exactly once
// (End is idempotent; later calls are no-ops). Spans are single-writer
// like Observer — only the goroutine driving the spanned work may call
// its methods.
type Span struct {
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	// Trial tags the emitted record with a batch trial index.
	Trial int

	queueWaitNS int64
	attrs       []SpanAttr
	events      []SpanEvent
	ended       bool
}

// Context returns the span's own context, the parent context for child
// spans. On a nil span it returns a disabled context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Attr attaches one named integer attribute (step counts, attempt
// numbers). Attributes keep insertion order, so records are
// deterministic. It returns the span for chaining and is a no-op on
// nil.
func (s *Span) Attr(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, SpanAttr{K: key, V: v})
	return s
}

// Event records one point event inside the span (a fault injection) at
// the given interaction count. No-op on nil.
func (s *Span) Event(name string, step int64) {
	if s == nil {
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, Step: step})
}

// SetQueueWait records the queue-wait duration surfaced on the record
// as queueWaitNs (a wall-clock field, like durNs). No-op on nil.
func (s *Span) SetQueueWait(d time.Duration) {
	if s == nil {
		return
	}
	s.queueWaitNS = d.Nanoseconds()
}

// End stamps the duration and journals the span record. Idempotent;
// no-op on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	rec := SpanRec{
		V:           Version,
		Type:        "span",
		Trace:       s.sc.Trace.String(),
		Span:        s.sc.Span.String(),
		Name:        s.name,
		Trial:       s.Trial,
		Attrs:       s.attrs,
		Events:      s.events,
		QueueWaitNS: s.queueWaitNS,
		DurNS:       time.Since(s.start).Nanoseconds(),
	}
	if s.parent != 0 {
		rec.Parent = s.parent.String()
	}
	_ = s.sc.Sink.Emit(rec)
}

// SpanRec is the v1 journal record of one completed span. DurNS and
// QueueWaitNS are the only wall-clock fields; everything else —
// trace/span/parent IDs included — is deterministic for a fixed seed
// (see docs/observability.md).
type SpanRec struct {
	V    int    `json:"v"`
	Type string `json:"type"` // "span"

	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trial  int    `json:"trial,omitempty"`

	Attrs  []SpanAttr  `json:"attrs,omitempty"`
	Events []SpanEvent `json:"events,omitempty"`

	QueueWaitNS int64 `json:"queueWaitNs,omitempty"`
	DurNS       int64 `json:"durNs"`
}

// SpanAttr is one named integer span attribute.
type SpanAttr struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// SpanEvent is one point event inside a span, stamped with the
// interaction count at which it fired.
type SpanEvent struct {
	Name string `json:"name"`
	Step int64  `json:"step"`
}
