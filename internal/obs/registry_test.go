package obs

import (
	"bytes"
	"testing"
)

// TestRegistryRendersBothFormats pins the registry walk: families in
// registration order, a repeated name adding labeled series to one
// family, a Gauges family read in one call per render, and one table
// per section whose rows carry the series names of the exposition.
func TestRegistryRendersBothFormats(t *testing.T) {
	var r Registry
	var jobs Counter
	var a, b Histogram
	r.Section("jobs")
	r.Counter("jobs_total", "Jobs run.", &jobs)
	jobs.Add(3)
	r.Gauge("ratio", "A ratio.", func() float64 { return 0.5 })
	reads := 0
	r.Gauges("jobs", "Jobs by state.", "state", []string{"queued", "done"}, func() []float64 {
		reads++
		return []float64{1, 2}
	})
	r.Section("latency")
	r.Histogram("lat", "Latency by kind.", &a, PromLabel{Name: "kind", Value: "a"})
	r.Histogram("lat", "Latency by kind.", &b, PromLabel{Name: "kind", Value: "b"})
	a.Observe(1)
	a.Observe(3)
	r.CounterFunc("gc_total", "GC cycles.", func() float64 { return 7 })

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# HELP jobs_total Jobs run.
# TYPE jobs_total counter
jobs_total 3
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.5
# HELP jobs Jobs by state.
# TYPE jobs gauge
jobs{state="queued"} 1
jobs{state="done"} 2
# HELP lat Latency by kind.
# TYPE lat histogram
lat_bucket{kind="a",le="1"} 1
lat_bucket{kind="a",le="3"} 2
lat_bucket{kind="a",le="+Inf"} 2
lat_sum{kind="a"} 4
lat_count{kind="a"} 2
lat_bucket{kind="b",le="+Inf"} 0
lat_sum{kind="b"} 0
lat_count{kind="b"} 0
# HELP gc_total GC cycles.
# TYPE gc_total counter
gc_total 7
`
	if prom.String() != wantProm {
		t.Errorf("prometheus:\n%s\nwant:\n%s", prom.String(), wantProm)
	}

	var tables bytes.Buffer
	r.WriteTables(&tables)
	wantTables := `jobs
| metric               | value |
| -------------------- | ----- |
| jobs_total           | 3     |
| ratio                | 0.5   |
| jobs{state="queued"} | 1     |
| jobs{state="done"}   | 2     |

latency
| metric        | value                                   |
| ------------- | --------------------------------------- |
| lat{kind="a"} | count=2 mean=2.0 max=3 log2=1-1:1 2-3:1 |
| lat{kind="b"} | count=0 mean=0.0 max=0 log2=-           |
| gc_total      | 7                                       |
`
	if tables.String() != wantTables {
		t.Errorf("tables:\n%s\nwant:\n%s", tables.String(), wantTables)
	}
	if reads != 2 {
		t.Errorf("Gauges read %d times over two renders, want 2", reads)
	}
}
