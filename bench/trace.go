package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"popnaming/internal/grid"
	"popnaming/internal/serve"
	"popnaming/internal/serve/store"
)

// A span is one timed call across a layer boundary. Trace is the cell
// seed (hex) of the cell the call served; Start and End are nanoseconds
// since the recorder started. Job names the ppserved job of store and
// service-journal spans, which run on server goroutines; the recorder
// links them to the results request of the same job when it writes the
// trace. High-frequency calls (journal writes) are not spans of their
// own: their calls, bytes and ns are attributes of the enclosing span.
type span struct {
	Name   string           `json:"name"`
	Trace  string           `json:"trace,omitempty"`
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent,omitempty"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Job    string           `json:"job,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) set(k string, v int64) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[k] = v
}

// recorder keeps spans in memory. on gates every wrapper: a traced run
// alternates traced and untraced passes through the same wrappers, and
// the difference in throughput is the tracing overhead.
type recorder struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []*span
	// results maps a job ID to the results-request span that streamed
	// it, the link from server-side spans to the cell.
	results map[string]*span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), results: make(map[string]*span)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start opens a span; it is recorded when finished.
func (r *recorder) start(name, trace string, parent uint64) *span {
	return &span{Name: name, Trace: trace, ID: r.ids.Add(1), Parent: parent, Start: r.now()}
}

func (r *recorder) finish(s *span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// linked returns every span with job spans attached to their cell: a
// span carrying a job ID and no parent gets the job's results-request
// span as parent, and its trace.
func (r *recorder) linked() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Job == "" || s.Parent != 0 {
			continue
		}
		if res, ok := r.results[s.Job]; ok {
			s.Parent, s.Trace = res.ID, res.Trace
		}
	}
	return r.spans
}

// writeSpans writes the spans as JSONL, in start order.
func writeSpans(path string, spans []*span) error {
	sorted := append([]*span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is s's duration minus the part of [s.Start, s.End) that the
// union of the children's intervals covers.
func selfTime(s *span, children []*span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	covered += cur.hi - cur.lo
	return s.dur() - covered
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

func traceID(seed int64) string { return strconv.FormatUint(uint64(seed), 16) }

// cellRunner wraps the workload's CellRunner. It times every cell — the
// only instrumentation an untraced run has — and, while its recorder is
// on, opens a grid.cell span and counts the journal writes Campaign's
// file receives.
type cellRunner struct {
	inner grid.CellRunner
	rec   *recorder

	mu    sync.Mutex
	durs  []time.Duration
	spans map[int]*span // this Execute's cell spans by cell index
}

func (cr *cellRunner) RunCell(ctx context.Context, sp *grid.Spec, c grid.Cell, w io.Writer) error {
	if cr.rec == nil || !cr.rec.on.Load() {
		t0 := time.Now()
		err := cr.inner.RunCell(ctx, sp, c, w)
		cr.record(time.Since(t0), c.Index, nil)
		return err
	}
	var parent uint64
	if p := spanFrom(ctx); p != nil {
		parent = p.ID
	}
	s := cr.rec.start("grid.cell", traceID(c.Seed), parent)
	cw := &countingWriter{w: w}
	t0 := time.Now()
	err := cr.inner.RunCell(withSpan(ctx, s), sp, c, cw)
	d := time.Since(t0)
	s.set("write_calls", cw.calls)
	s.set("write_bytes", cw.bytes)
	s.set("write_records", cw.records)
	s.set("write_ns", cw.ns)
	cr.rec.finish(s)
	cr.record(d, c.Index, s)
	return err
}

func (cr *cellRunner) record(d time.Duration, idx int, s *span) {
	cr.mu.Lock()
	cr.durs = append(cr.durs, d)
	if s != nil {
		if cr.spans == nil {
			cr.spans = make(map[int]*span)
		}
		cr.spans[idx] = s
	}
	cr.mu.Unlock()
}

// reset forgets the previous Execute's cell spans.
func (cr *cellRunner) reset() {
	cr.mu.Lock()
	cr.spans = nil
	cr.mu.Unlock()
}

func (cr *cellRunner) spanOf(idx int) *span {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.spans[idx]
}

// takeDurations returns and clears the cell times recorded so far.
func (cr *cellRunner) takeDurations() []time.Duration {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	d := cr.durs
	cr.durs = nil
	return d
}

// countingWriter counts the calls, bytes, newline-terminated records and
// time of the writes to a cell's journal.
type countingWriter struct {
	w                         io.Writer
	calls, bytes, records, ns int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := cw.w.Write(p)
	cw.ns += int64(time.Since(t0))
	cw.calls++
	cw.bytes += int64(n)
	cw.records += int64(bytes.Count(p[:n], []byte{'\n'}))
	return n, err
}

// traceHeader carries "<trace>/<span id>" of the client request span to
// the handler middleware.
const traceHeader = "X-Bench-Trace"

// tracingTransport is the ServerRunner's RoundTripper: one dist.<route>
// span per request, open until the response body is closed, tagged
// onto the request for the server side.
type tracingTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	var trace string
	var parent uint64
	if p := spanFrom(req.Context()); p != nil {
		trace, parent = p.Trace, p.ID
	}
	s := t.rec.start("dist."+route(req.Method, req.URL.Path), trace, parent)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%s/%d", trace, s.ID))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.set("error", 1)
		t.rec.finish(s)
		return nil, err
	}
	if resp.StatusCode >= 400 {
		s.set("error", 1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody counts the response bytes and ends the request span on Close.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	n    int64
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.set("bytes", b.n)
		b.rec.finish(b.s)
	})
	return err
}

// route names a v1 API request for span names and per-route counts.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/results"):
		return "results"
	}
	return "other"
}

// middleware wraps the ppserved handler: one serve.<route> span per
// request, parented on the client span named by the trace header.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		var trace string
		var parent uint64
		if tag := req.Header.Get(traceHeader); tag != "" {
			if i := strings.LastIndexByte(tag, '/'); i >= 0 {
				trace = tag[:i]
				parent, _ = strconv.ParseUint(tag[i+1:], 10, 64)
			}
		}
		rt := route(req.Method, req.URL.Path)
		s := r.start("serve."+rt, trace, parent)
		if rt == "results" {
			s.Job = strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/results")
			r.mu.Lock()
			r.results[s.Job] = s
			r.mu.Unlock()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, req)
		if sw.status >= 400 {
			s.set("error", 1)
		}
		r.finish(s)
	})
}

// statusWriter records the response status; it forwards Flush and
// exposes the underlying writer so the streaming handler keeps its
// flushes and write deadlines.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedSink is the service journal sink: each terminal job record
// becomes a serve.job span carrying the job's queue wait, execution
// time and cache flag.
type tracedSink struct{ rec *recorder }

func (t tracedSink) Emit(v any) error {
	jr, ok := v.(serve.JobRec)
	if !ok || !t.rec.on.Load() {
		return nil
	}
	switch jr.State {
	case "done", "failed", "canceled":
	default:
		return nil
	}
	s := t.rec.start("serve.job", "", 0)
	s.Start -= jr.QueueWaitNS + jr.WallNS
	s.Job = jr.ID
	s.set("queue_wait_ns", jr.QueueWaitNS)
	s.set("wall_ns", jr.WallNS)
	if jr.Cached {
		s.set("cached", 1)
	}
	if jr.State != "done" {
		s.set("error", 1)
	}
	t.rec.finish(s)
	return nil
}

// tracedStore times the JobStore calls ppserved makes into store.WAL.
// Replay runs once, when the node starts, and is always recorded.
type tracedStore struct {
	serve.JobStore
	rec *recorder
}

func (t *tracedStore) begin(op, job string) *span {
	if !t.rec.on.Load() {
		return nil
	}
	s := t.rec.start("store."+op, "", 0)
	s.Job = job
	return s
}

func (t *tracedStore) end(s *span, n int) {
	if s == nil {
		return
	}
	if n > 0 {
		s.set("bytes", int64(n))
	}
	t.rec.finish(s)
}

func (t *tracedStore) Admit(id string, spec json.RawMessage, seedDerived bool) error {
	s := t.begin("Admit", id)
	err := t.JobStore.Admit(id, spec, seedDerived)
	t.end(s, len(spec))
	return err
}

func (t *tracedStore) SetState(id, state string) error {
	s := t.begin("SetState", id)
	err := t.JobStore.SetState(id, state)
	t.end(s, 0)
	return err
}

func (t *tracedStore) Finalize(id string, fin store.Final) error {
	s := t.begin("Finalize", id)
	err := t.JobStore.Finalize(id, fin)
	t.end(s, len(fin.Summary))
	return err
}

func (t *tracedStore) AppendResults(id string, lines [][]byte) error {
	s := t.begin("AppendResults", id)
	err := t.JobStore.AppendResults(id, lines)
	n := 0
	for _, l := range lines {
		n += len(l)
	}
	t.end(s, n)
	return err
}

func (t *tracedStore) ReadResults(id string, from, to int) ([][]byte, error) {
	s := t.begin("ReadResults", id)
	lines, err := t.JobStore.ReadResults(id, from, to)
	t.end(s, 0)
	return lines, err
}

func (t *tracedStore) Replay() ([]store.Snapshot, error) {
	s := t.rec.start("store.Replay", "", 0)
	snaps, err := t.JobStore.Replay()
	s.set("jobs", int64(len(snaps)))
	t.rec.finish(s)
	return snaps, err
}
