package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of Prometheus text exposition
// format 0.0.4, the format PromWriter emits.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromLabel is one label pair on a Prometheus sample.
type PromLabel struct {
	Name  string
	Value string
}

// PromWriter renders metrics in Prometheus text exposition format
// 0.0.4: per-family `# HELP`/`# TYPE` comment pairs followed by that
// family's samples, label values escaped per the spec, histograms as
// cumulative `le` buckets with `_sum`/`_count`. The writer retains the
// first underlying write error and turns later calls into no-ops;
// check Err once at the end.
//
// Callers are expected to emit one family at a time: Family, then
// every sample of that family before the next Family call. The writer
// does not reorder. Registry is the usual caller.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value. Integral values render without
// an exponent so counters stay exact-looking in the common range.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Family emits the `# HELP` and `# TYPE` header for one metric family.
// typ must be "counter", "gauge" or "histogram".
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line: name{labels} value.
func (p *PromWriter) Sample(name string, labels []PromLabel, v float64) {
	p.printf("%s %s\n", seriesName(name, labels), formatValue(v))
}

// seriesName renders a series the way a sample line names it:
// name{label="value",...}, label values escaped.
func seriesName(name string, labels []PromLabel) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Histogram emits one labeled series of a histogram family (call
// Family(name, "histogram", ...) once before the first series). The
// log2 snapshot buckets become cumulative `le` buckets with upper
// bounds 2^k-1 (bucket 0, values <= 0, becomes le="0"), followed by
// the mandatory `+Inf` bucket, `_sum` and `_count`.
//
// A snapshot scraped concurrently with writers can carry a bucket
// total ahead of its count (Observe increments the bucket first);
// the `+Inf` bucket and `_count` are clamped to the larger of the two
// so the exposition stays cumulative and self-consistent.
func (p *PromWriter) Histogram(name string, labels []PromLabel, snap HistogramSnapshot) {
	le := func(v string) []PromLabel {
		out := make([]PromLabel, 0, len(labels)+1)
		out = append(out, labels...)
		return append(out, PromLabel{Name: "le", Value: v})
	}
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b.Count
		p.Sample(name+"_bucket", le(strconv.FormatInt(b.Hi, 10)), float64(cum))
	}
	total := snap.Count
	if cum > total {
		total = cum
	}
	p.Sample(name+"_bucket", le("+Inf"), float64(total))
	p.Sample(name+"_sum", labels, float64(snap.Sum))
	p.Sample(name+"_count", labels, float64(total))
}
