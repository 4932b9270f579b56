package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestPromWriterFamiliesAndEscaping pins the line format: HELP before
// TYPE, escaped help text and label values, integral sample rendering.
func TestPromWriterFamiliesAndEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("jobs_total", "counter", "Jobs with a \\ and\na newline.")
	p.Sample("jobs_total", nil, 42)
	p.Family("jobs", "gauge", "By state.")
	p.Sample("jobs", []PromLabel{{Name: "state", Value: `do"ne\n` + "\n"}}, 3)
	p.Family("ratio", "gauge", "Non-integral gauge.")
	p.Sample("ratio", nil, 0.5)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`# HELP jobs_total Jobs with a \\ and\na newline.`,
		`# TYPE jobs_total counter`,
		`jobs_total 42`,
		`# HELP jobs By state.`,
		`# TYPE jobs gauge`,
		`jobs{state="do\"ne\\n\n"} 3`,
		`# HELP ratio Non-integral gauge.`,
		`# TYPE ratio gauge`,
		`ratio 0.5`,
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestPromWriterHistogram pins the histogram exposition: log2 buckets
// become cumulative le bounds 2^k-1, bucket 0 is le="0", +Inf is
// mandatory, _sum/_count close the series, labels ride along.
func TestPromWriterHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("lat", "histogram", "Latency.")
	p.Histogram("lat", []PromLabel{{Name: "kind", Value: "sim"}}, h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		`# HELP lat Latency.`,
		`# TYPE lat histogram`,
		`lat_bucket{kind="sim",le="0"} 1`,
		`lat_bucket{kind="sim",le="1"} 3`,
		`lat_bucket{kind="sim",le="3"} 4`,
		`lat_bucket{kind="sim",le="127"} 5`,
		`lat_bucket{kind="sim",le="+Inf"} 5`,
		`lat_sum{kind="sim"} 105`,
		`lat_count{kind="sim"} 5`,
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestPromWriterSkewClamp pins the concurrent-scrape guarantee: when a
// snapshot's buckets run ahead of its count (Observe increments the
// bucket first), +Inf and _count are clamped up to the bucket total so
// the exposition stays cumulative.
func TestPromWriterSkewClamp(t *testing.T) {
	snap := HistogramSnapshot{
		Count:   2, // behind the buckets, as a torn concurrent read would be
		Sum:     10,
		Buckets: []HistBucket{{Lo: 0, Hi: 0, Count: 1}, {Lo: 2, Hi: 3, Count: 2}},
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("lat", nil, snap)
	out := buf.String()
	for _, line := range []string{`lat_bucket{le="+Inf"} 3`, `lat_count 3`} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestPromWriterRetainsError pins the sticky-error contract.
func TestPromWriterRetainsError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Family("x_total", "counter", "X.")
	p.Sample("x_total", nil, 1)
	if p.Err() == nil {
		t.Fatal("write error not retained")
	}
	p.Family("y", "gauge", "Y.") // must be no-ops, not a panic
	p.Sample("y", nil, 2)
	if p.Err() == nil {
		t.Fatal("error cleared by later call")
	}
}
