package obs

import (
	"fmt"
	"io"
	"strings"

	"popnaming/internal/report"
)

// Registry is the one declaration of a service's metrics: each family
// is registered once, with its Prometheus name, type, help text and
// optional label, and both exposition formats walk it. The zero value
// is ready to use. Fill it before the first render: renders only read
// it and hold no lock of their own, so they may run concurrently and
// read functions may take the caller's locks.
type Registry struct {
	families []*family
	section  string
}

// family is one metric family. Each series is a counter, a histogram,
// a value read at render time, or an entry of a Gauges family's
// readAll.
type family struct {
	name, typ, help, section string
	series                   []series
	readAll                  func() []float64
}

type series struct {
	labels []PromLabel
	ctr    *Counter
	hist   *Histogram
	read   func() float64
}

// Section titles the table the families registered after it render in.
func (r *Registry) Section(title string) { r.section = title }

// Counter registers c as a counter series.
func (r *Registry) Counter(name, help string, c *Counter, labels ...PromLabel) {
	r.add(name, "counter", help, series{labels: labels, ctr: c})
}

// CounterFunc registers a counter series kept elsewhere, read by read.
func (r *Registry) CounterFunc(name, help string, read func() float64, labels ...PromLabel) {
	r.add(name, "counter", help, series{labels: labels, read: read})
}

// Histogram registers h as a histogram series.
func (r *Registry) Histogram(name, help string, h *Histogram, labels ...PromLabel) {
	r.add(name, "histogram", help, series{labels: labels, hist: h})
}

// Gauge registers a gauge series read through read.
func (r *Registry) Gauge(name, help string, read func() float64, labels ...PromLabel) {
	r.add(name, "gauge", help, series{labels: labels, read: read})
}

// Gauges registers a gauge family with one series per value of label.
// One call to read per render returns all their values, in the order
// of values. It must be the family's only registration.
func (r *Registry) Gauges(name, help, label string, values []string, read func() []float64) {
	for _, v := range values {
		r.add(name, "gauge", help, series{labels: []PromLabel{{Name: label, Value: v}}}).readAll = read
	}
}

// add appends a series to the family called name, creating the family
// in the current section on first use.
func (r *Registry) add(name, typ, help string, s series) *family {
	for _, f := range r.families {
		if f.name == name {
			f.series = append(f.series, s)
			return f
		}
	}
	f := &family{name: name, typ: typ, help: help, section: r.section, series: []series{s}}
	r.families = append(r.families, f)
	return f
}

// each reads every series of f and passes it to fn: a histogram's
// snapshot, or a value.
func (f *family) each(fn func(labels []PromLabel, v float64, h *HistogramSnapshot)) {
	var all []float64
	if f.readAll != nil {
		all = f.readAll()
	}
	for i, s := range f.series {
		switch {
		case s.ctr != nil:
			fn(s.labels, float64(s.ctr.Value()), nil)
		case s.hist != nil:
			snap := s.hist.Snapshot()
			fn(s.labels, 0, &snap)
		case s.read != nil:
			fn(s.labels, s.read(), nil)
		default:
			fn(s.labels, all[i], nil)
		}
	}
}

// WritePrometheus renders every family in Prometheus text format
// 0.0.4, in registration order, and returns the first write error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	for _, f := range r.families {
		p.Family(f.name, f.typ, f.help)
		f.each(func(labels []PromLabel, v float64, h *HistogramSnapshot) {
			if h != nil {
				p.Histogram(f.name, labels, *h)
			} else {
				p.Sample(f.name, labels, v)
			}
		})
	}
	return p.Err()
}

// WriteTables renders each section as a report.Table, separated by
// blank lines. A row is one series: its name as the Prometheus sample
// line writes it, and its value; a histogram's value is its count,
// mean, max and non-empty log2 buckets.
func (r *Registry) WriteTables(w io.Writer) {
	var t *report.Table
	for i, f := range r.families {
		if i == 0 || f.section != r.families[i-1].section {
			if t != nil {
				t.Render(w)
				fmt.Fprintln(w)
			}
			t = report.NewTable(f.section, "metric", "value")
		}
		f.each(func(labels []PromLabel, v float64, h *HistogramSnapshot) {
			value := formatValue(v)
			if h != nil {
				value = fmt.Sprintf("count=%d mean=%.1f max=%d log2=%s", h.Count, h.Mean, h.Max, bucketString(h.Buckets))
			}
			t.AddRow(seriesName(f.name, labels), value)
		})
	}
	if t != nil {
		t.Render(w)
	}
}

// bucketString renders non-empty log2 buckets compactly:
// "lo-hi:count lo-hi:count ...", or "-" when there are none.
func bucketString(buckets []HistBucket) string {
	if len(buckets) == 0 {
		return "-"
	}
	parts := make([]string, len(buckets))
	for i, b := range buckets {
		parts[i] = fmt.Sprintf("%d-%d:%d", b.Lo, b.Hi, b.Count)
	}
	return strings.Join(parts, " ")
}
