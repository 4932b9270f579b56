package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"popnaming/internal/stats"
)

// A metricDef names one reported metric. End-to-end metrics carry the
// share of the baseline median by which they may worsen (bound), and
// may carry a floor: a change of the median by no more than floor, in
// the metric's unit, is always within bound.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end metrics only
	floor  float64 // end-to-end metrics only; 0 for none
}

// endToEnd are the metrics a user of the pipeline sees, measured with
// tracing off. The timing bounds are wide because run-to-run spreads on
// the shared reference host reach 11–14% even at the reference speed
// (README, "Steadiness"). Set-up takes well under a millisecond on three
// workloads, so setup_s is bounded by 25% or 20 ms, whichever is larger.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher", 0.25, 0},
	{"cell_p50_ms", "ms", "lower", 0.25, 0},
	{"cell_p90_ms", "ms", "lower", 0.25, 0},
	{"interactions_per_s", "1/s", "higher", 0.25, 0},
	{"setup_s", "s", "lower", 0.25, 0.020},
	{"rss_peak_mb", "MiB", "lower", 0.15, 0},
	{"allocs_per_cell", "allocs", "lower", 0.05, 0},
}

// storeOps are the JobStore calls timed per cell.
var storeOps = []string{"Admit", "SetState", "AppendResults", "Finalize", "ReadResults"}

// perLayer are the traced run's metrics, named after the package whose
// public surface the bench wraps. A layer a workload does not exercise
// reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "grid.cell_ns.p50", unit: "ns/cell", better: "lower"},
		{name: "grid.cell_ns.p99", unit: "ns/cell", better: "lower"},
		{name: "grid.pass_overhead_ns", unit: "ns/pass", better: "lower"},
		{name: "grid.validate_ns", unit: "ns/cell", better: "lower"},
		{name: "grid.reduce_ns", unit: "ns/cell", better: "lower"},
		{name: "grid.reduce_bytes", unit: "B/cell", better: "lower"},
		{name: "grid.files_written", unit: "files/cell", better: "lower"},
		{name: "obs.records", unit: "records/cell", better: "lower"},
		{name: "obs.bytes", unit: "B/cell", better: "lower"},
		{name: "obs.write_calls", unit: "calls/cell", better: "lower"},
		{name: "obs.write_ns", unit: "ns/cell", better: "lower"},
		{name: "obs.read_ns_per_record", unit: "ns/record", better: "lower"},
		{name: "report.render_ns", unit: "ns/pass", better: "lower"},
		{name: "serve.submit_ns.p50", unit: "ns/req", better: "lower"},
		{name: "serve.results_ns.p50", unit: "ns/req", better: "lower"},
		{name: "serve.queue_wait_ns.p50", unit: "ns/job", better: "lower"},
		{name: "serve.exec_ns.p50", unit: "ns/job", better: "lower"},
		{name: "serve.requests.submit", unit: "req/cell", better: "lower"},
		{name: "serve.requests.results", unit: "req/cell", better: "lower"},
		{name: "serve.requests.other", unit: "req/cell", better: "lower"},
		{name: "serve.cache_hits", unit: "count", better: "higher"},
		{name: "serve.jobs", unit: "count", better: "higher"},
		{name: "serve.cache_hit_ratio", unit: "fraction", better: "higher"},
		{name: "serve.http_errors", unit: "count", better: "lower"},
	}
	for _, op := range storeOps {
		defs = append(defs,
			metricDef{name: "store.calls." + op, unit: "calls/cell", better: "lower"},
			metricDef{name: "store.ns." + op, unit: "ns/cell", better: "lower"})
	}
	return append(defs,
		metricDef{name: "store.calls.Replay", unit: "calls/setup", better: "lower"},
		metricDef{name: "store.ns.Replay", unit: "ns/setup", better: "lower"},
		metricDef{name: "store.finalize_ns.p50", unit: "ns/call", better: "lower"},
		metricDef{name: "store.bytes", unit: "B/cell", better: "lower"},
		metricDef{name: "dist.client_self_ns.p50", unit: "ns/cell", better: "lower"},
		metricDef{name: "dist.response_bytes", unit: "B/cell", better: "lower"},
		metricDef{name: "sim.interactions", unit: "steps/pass", better: "higher"},
		metricDef{name: "sim.agent_ns_per_step", unit: "ns/step", better: "lower"},
		metricDef{name: "sim.count_ns_per_step", unit: "ns/step", better: "lower"},
		metricDef{name: "runtime.gc_cycles_per_kcell", unit: "1/kcell", better: "lower"},
		metricDef{name: "runtime.heap_inuse_mb_end", unit: "MiB", better: "lower"},
		metricDef{name: "trace.overhead", unit: "fraction", better: "lower"},
	)
}()

// layerInput is what the traced run knows besides its spans.
type layerInput struct {
	setups       int
	gcPerKcell   float64
	heapInuseMB  float64
	tracedCPS    float64 // cells/s of the traced passes
	untracedCPS  float64 // cells/s of the untraced passes
	tracedPasses int
	tracedCells  int
}

// layerMetrics folds the spans of the traced passes into the per-layer
// metrics. Per-cell values divide by the traced cells, per-pass values
// by the traced passes.
func layerMetrics(spans []*span, in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	by := make(map[string][]*span)
	children := make(map[uint64][]*span)
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	cells := float64(in.tracedCells)
	passes := float64(in.tracedPasses)
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	sumDur := func(name string) float64 {
		var t float64
		for _, s := range by[name] {
			t += float64(s.dur())
		}
		return t
	}
	sumAttr := func(name, attr string) float64 {
		var t float64
		for _, s := range by[name] {
			t += float64(s.Attrs[attr])
		}
		return t
	}
	p50 := func(name string) float64 { return durQuantile(by[name], 0.5) }

	m["grid.cell_ns.p50"] = p50("grid.cell")
	m["grid.cell_ns.p99"] = durQuantile(by["grid.cell"], 0.99)
	var overhead float64
	for _, ex := range by["grid.execute"] {
		overhead += float64(selfTime(ex, pick(children[ex.ID], "grid.cell")))
	}
	m["grid.pass_overhead_ns"] = per(overhead, passes)
	m["grid.validate_ns"] = per(sumDur("grid.validate"), sumAttr("grid.validate", "cells"))
	m["grid.reduce_ns"] = per(sumDur("grid.reduce"), sumAttr("grid.reduce", "cells"))
	m["grid.reduce_bytes"] = per(sumAttr("grid.reduce", "bytes"), sumAttr("grid.reduce", "cells"))
	m["grid.files_written"] = per(sumAttr("grid.execute", "files"), sumAttr("grid.execute", "cells"))

	m["obs.records"] = per(sumAttr("grid.cell", "write_records"), cells)
	m["obs.bytes"] = per(sumAttr("grid.cell", "write_bytes"), cells)
	m["obs.write_calls"] = per(sumAttr("grid.cell", "write_calls"), cells)
	m["obs.write_ns"] = per(sumAttr("grid.cell", "write_ns"), cells)
	m["obs.read_ns_per_record"] = per(sumDur("obs.read"), sumAttr("obs.read", "records"))
	m["report.render_ns"] = per(sumDur("report.render"), passes)

	m["serve.submit_ns.p50"] = p50("serve.submit")
	m["serve.results_ns.p50"] = p50("serve.results")
	var waits, execs []float64
	var hits float64
	for _, s := range by["serve.job"] {
		waits = append(waits, float64(s.Attrs["queue_wait_ns"]))
		if s.Attrs["cached"] == 1 {
			hits++
		} else {
			execs = append(execs, float64(s.Attrs["wall_ns"]))
		}
	}
	sort.Float64s(waits)
	sort.Float64s(execs)
	m["serve.queue_wait_ns.p50"] = stats.Quantile(waits, 0.5)
	m["serve.exec_ns.p50"] = stats.Quantile(execs, 0.5)
	for _, rt := range []string{"submit", "results", "other"} {
		m["serve.requests."+rt] = per(float64(len(by["serve."+rt])), cells)
	}
	jobs := float64(len(by["serve.job"]))
	m["serve.cache_hits"] = hits
	m["serve.jobs"] = jobs
	m["serve.cache_hit_ratio"] = per(hits, jobs)
	var httpErrs int64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.") || strings.HasPrefix(s.Name, "dist.") {
			httpErrs += s.Attrs["error"]
		}
	}
	m["serve.http_errors"] = float64(httpErrs)

	var storeBytes float64
	for _, op := range storeOps {
		m["store.calls."+op] = per(float64(len(by["store."+op])), cells)
		m["store.ns."+op] = per(sumDur("store."+op), cells)
		storeBytes += sumAttr("store."+op, "bytes")
	}
	m["store.calls.Replay"] = per(float64(len(by["store.Replay"])), float64(in.setups))
	m["store.ns.Replay"] = per(sumDur("store.Replay"), float64(in.setups))
	m["store.finalize_ns.p50"] = p50("store.Finalize")
	m["store.bytes"] = per(storeBytes, cells)

	// The client's own share of a server cell: the cell span minus the
	// server handler spans under its requests.
	var selfs []float64
	for _, c := range by["grid.cell"] {
		var handlers []*span
		for _, req := range children[c.ID] {
			if strings.HasPrefix(req.Name, "dist.") {
				handlers = append(handlers, children[req.ID]...)
			}
		}
		if len(handlers) > 0 {
			selfs = append(selfs, float64(selfTime(c, handlers)))
		}
	}
	sort.Float64s(selfs)
	m["dist.client_self_ns.p50"] = stats.Quantile(selfs, 0.5)
	var respBytes float64
	for name := range by {
		if strings.HasPrefix(name, "dist.") {
			respBytes += sumAttr(name, "bytes")
		}
	}
	m["dist.response_bytes"] = per(respBytes, cells)

	var steps, agentNS, agentSteps, countNS, countSteps float64
	for _, c := range by["grid.cell"] {
		st := float64(c.Attrs["steps"])
		steps += st
		if c.Attrs["count_engine"] == 1 {
			countNS += float64(c.dur())
			countSteps += st
		} else {
			agentNS += float64(c.dur())
			agentSteps += st
		}
	}
	m["sim.interactions"] = per(steps, passes)
	m["sim.agent_ns_per_step"] = per(agentNS, agentSteps)
	m["sim.count_ns_per_step"] = per(countNS, countSteps)

	m["runtime.gc_cycles_per_kcell"] = in.gcPerKcell
	m["runtime.heap_inuse_mb_end"] = in.heapInuseMB
	if in.untracedCPS > 0 {
		m["trace.overhead"] = 1 - in.tracedCPS/in.untracedCPS
	}
	return m
}

func pick(spans []*span, name string) []*span {
	var out []*span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durQuantile(spans []*span, q float64) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.dur())
	}
	sort.Float64s(xs)
	return stats.Quantile(xs, q)
}

// printSpanTable writes, per span name, the span count, total and self
// time (duration minus the part covered by child spans): where a traced
// pass spent its time, layer by layer.
func printSpanTable(w io.Writer, spans []*span) {
	children := make(map[uint64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type row struct {
		n           int
		total, self int64
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += selfTime(s, children[s.ID])
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %9s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-20s %9d %14.3f %14.3f\n", n, r.n, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}
