package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func runOnce(t *testing.T, name string, trace bool) *outcome {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	dir := t.TempDir()
	o := options{seed: defaultSeed, seconds: time.Minute, passes: 1, setups: 2, trace: trace,
		spans: filepath.Join(dir, "spans.jsonl"), tmp: dir}
	res, err := runWorkload(w, o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d errors=%v", name, res.Correct, res.Attempted, res.Failed, res.errs)
	}
	return res
}

// TestSmoke runs one pass of every workload through its real path and
// checks the first-pass digest against the pinned one.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runOnce(t, w.name, false)
			if res.digest != pinnedDigests[w.name] {
				t.Errorf("digest %s, pinned %s", res.digest, pinnedDigests[w.name])
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
		})
	}
}

// TestTracedRunTransparent checks that the tracing wrappers change no
// artifact, and that a traced run reports the layers its workload
// exercises.
func TestTracedRunTransparent(t *testing.T) {
	exercised := map[string][]string{
		"local-small":   {"grid.cell_ns.p50", "grid.reduce_ns", "grid.files_written", "obs.records", "obs.write_calls", "obs.read_ns_per_record", "report.render_ns", "sim.interactions", "sim.agent_ns_per_step"},
		"server-cold":   {"serve.submit_ns.p50", "serve.results_ns.p50", "serve.exec_ns.p50", "serve.requests.submit", "store.calls.Admit", "store.calls.Finalize", "store.ns.AppendResults", "store.finalize_ns.p50", "store.bytes", "dist.client_self_ns.p50", "dist.response_bytes"},
		"server-cached": {"serve.cache_hits", "serve.cache_hit_ratio", "store.calls.Replay", "store.ns.Replay", "store.calls.ReadResults"},
		"sim-heavy":     {"sim.count_ns_per_step", "sim.agent_ns_per_step", "grid.cell_ns.p99"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runOnce(t, w.name, false)
			traced := runOnce(t, w.name, true)
			if plain.digest != traced.digest {
				t.Errorf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			for _, d := range perLayer {
				if _, ok := traced.Metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			for _, name := range exercised[w.name] {
				if v := traced.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if w.path == pathCached && traced.Metrics["serve.cache_hit_ratio"].Value != 1 {
				t.Errorf("cache hit ratio %v, want 1", traced.Metrics["serve.cache_hit_ratio"].Value)
			}
		})
	}
}

func sp(name string, id, parent uint64, start, end int64) *span {
	return &span{Name: name, ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	root := sp("root", 1, 0, 100, 200)
	for _, tc := range []struct {
		name     string
		children []*span
		want     int64
	}{
		{"leaf", nil, 100},
		{"one child", []*span{sp("a", 2, 1, 110, 130)}, 80},
		{"disjoint", []*span{sp("a", 2, 1, 110, 130), sp("b", 3, 1, 150, 160)}, 70},
		{"overlapping, as concurrent cells", []*span{sp("a", 2, 1, 110, 150), sp("b", 3, 1, 140, 170)}, 40},
		{"nested", []*span{sp("a", 2, 1, 110, 190), sp("b", 3, 1, 120, 130)}, 20},
		{"unsorted", []*span{sp("b", 3, 1, 150, 160), sp("a", 2, 1, 110, 130)}, 70},
		{"clipped to the parent", []*span{sp("a", 2, 1, 50, 120), sp("b", 3, 1, 190, 250)}, 70},
		{"outside the parent", []*span{sp("a", 2, 1, 0, 50), sp("b", 3, 1, 300, 400)}, 100},
		{"covering the parent", []*span{sp("a", 2, 1, 0, 400)}, 0},
		{"empty child", []*span{sp("a", 2, 1, 120, 120)}, 100},
	} {
		if got := selfTime(root, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLayerMetricsFromSpans folds a synthetic server cell into the
// per-layer metrics: the client's self time excludes the handler spans.
func TestLayerMetricsFromSpans(t *testing.T) {
	exec := sp("grid.execute", 1, 0, 0, 1000)
	exec.Attrs = map[string]int64{"files": 6, "cells": 2}
	cell := sp("grid.cell", 2, 1, 100, 600)
	cell.Attrs = map[string]int64{"steps": 500, "write_records": 12, "write_calls": 12}
	spans := []*span{
		exec, cell, sp("grid.cell", 3, 1, 500, 900),
		sp("dist.submit", 4, 2, 110, 300),
		sp("serve.submit", 5, 4, 120, 250),
		sp("dist.results", 6, 2, 300, 590),
		sp("serve.results", 7, 6, 310, 580),
		{Name: "serve.job", ID: 8, Parent: 7, Attrs: map[string]int64{"cached": 1, "queue_wait_ns": 40}},
	}
	m := layerMetrics(spans, layerInput{setups: 1, tracedPasses: 1, tracedCells: 2, tracedCPS: 90, untracedCPS: 100})
	for name, want := range map[string]float64{
		"grid.pass_overhead_ns":   200, // [0,100) and [900,1000)
		"grid.files_written":      3,
		"grid.cell_ns.p50":        450,
		"obs.records":             6,
		"serve.requests.submit":   0.5,
		"serve.cache_hit_ratio":   1,
		"serve.queue_wait_ns.p50": 40,
		"dist.client_self_ns.p50": 500 - 130 - 270,
		"sim.interactions":        500,
		"sim.agent_ns_per_step":   900.0 / 500,
		"trace.overhead":          0.1,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBlockMetrics checks that the timing metrics are medians over the
// blocks, so one slow block does not move them; that each block is
// taken at its own host speed, so a slow phase of the host that the
// calibration sees cancels; and that the passes after the last full
// block join it.
func TestBlockMetrics(t *testing.T) {
	blk := func(secs, speed float64, durs ...float64) block {
		return block{window: time.Duration(secs * float64(time.Second)), cells: len(durs), steps: int64(10 * len(durs)), durs: durs,
			calRounds: 1, calTime: time.Duration(float64(calNominal) / speed)}
	}
	ms := 1e6
	blocks := []block{
		blk(1, 1, 1*ms, 2*ms, 3*ms, 4*ms),
		blk(4, 1, 4*ms, 8*ms, 12*ms, 16*ms), // the program stalled
		blk(2, 0.5, 2*ms, 4*ms, 6*ms, 8*ms), // the host ran at half speed
	}
	ref, timed := blockMetrics(blocks, blk(2, 0.5, 2*ms, 4*ms, 6*ms, 8*ms))
	// The last block becomes 8 cells in 4 s at half speed. As timed the
	// blocks run 4, 1 and 2 cells/s; at the reference speed 4, 1 and 4.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"cells_per_s", ref.cps, 4},
		{"interactions_per_s", ref.ips, 40},
		{"cell_p50_ms", ref.p50ms, 2.5}, // block p50s 2.5, 10, 5 × 0.5
		{"cell_p90_ms", ref.p90ms, 4},   // block p90s 3.7, 14.8, 8 × 0.5
		{"speed", ref.speed, 1},
		{"cells_per_s as timed", timed.cps, 2},
		{"cell_p50_ms as timed", timed.p50ms, 5},
		{"cell_p90_ms as timed", timed.p90ms, 8},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if ref, _ := blockMetrics(nil, blk(2, 1, ms, ms)); ref.cps != 1 {
		t.Errorf("one short run: cells_per_s = %v, want 1", ref.cps)
	}
}

// TestCalibrator checks that at least one round follows every pass, and
// that the calibration takes about calShare of a long pass.
func TestCalibrator(t *testing.T) {
	c := newCalibrator()
	if n, total := c.after(0); n != 1 || !(total > 0) {
		t.Errorf("after an empty pass: %d rounds in %v, want 1", n, total)
	}
	d := time.Duration(25 * float64(calNominal) / calShare)
	if n, _ := c.after(d); n != 25 {
		t.Errorf("after a pass of %v: %d rounds, want 25", d, n)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) and statistics.median return.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	cps := metricDef{name: "cells_per_s", better: "higher", bound: 0.10}
	lat := metricDef{name: "cell_p50_ms", better: "lower", bound: 0.10}
	base := []float64{1000, 1010, 990, 1005, 995}
	for _, tc := range []struct {
		name   string
		d      metricDef
		change []float64
		want   string
	}{
		{"same", cps, []float64{1002, 998, 1008, 993, 1001}, "unchanged"},
		{"faster", cps, []float64{1200, 1210, 1190, 1205, 1195}, "improved"},
		{"slower", cps, []float64{850, 860, 840, 855, 845}, "regressed"},
		{"noisy", cps, []float64{700, 1300, 1000, 800, 1200}, "unresolved"},
		{"noisy but every run faster", cps, []float64{1300, 1900, 1500, 1100, 1700}, "improved"},
		{"lower is better", lat, []float64{1200, 1210, 1190, 1205, 1195}, "regressed"},
		{"lower is better, improved", lat, []float64{800, 810, 790, 805, 795}, "improved"},
	} {
		if _, got := verdict(tc.d, base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// setup_s is held to 25% or 20 ms, whichever is larger.
	var setup metricDef
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			setup = d
		}
	}
	ms := []float64{0.00080, 0.00082, 0.00079, 0.00081, 0.00080}
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"sub-ms set-up tripled, within the floor", ms, []float64{0.0024, 0.0025, 0.0023, 0.0024, 0.0026}, "unchanged"},
		{"sub-ms set-up jitter, within the floor", ms, []float64{0.0005, 0.0020, 0.0009, 0.0015, 0.0007}, "unchanged"},
		{"sub-ms set-up grew by 30 ms", ms, []float64{0.031, 0.030, 0.032, 0.031, 0.030}, "regressed"},
		{"long set-up, 20% slower", []float64{1.00, 1.01, 0.99, 1.00, 1.00}, []float64{1.20, 1.21, 1.19, 1.20, 1.20}, "unchanged"},
		{"long set-up, 30% slower", []float64{1.00, 1.01, 0.99, 1.00, 1.00}, []float64{1.30, 1.31, 1.29, 1.30, 1.30}, "regressed"},
	} {
		if _, got := verdict(setup, tc.base, tc.change); got != tc.want {
			t.Errorf("setup_s, %s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles runs -compare on synthetic -out files.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cps []float64) string {
		var b bytes.Buffer
		for i, v := range cps {
			r := record{Workload: "local-small", Seed: int64(i + 1)}
			r.Metrics = map[string]metric{"cells_per_s": {v, "cells/s"}}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		// Traced runs carry per-layer metrics only and are skipped.
		b.WriteString(`{"workload":"local-small","trace":true,"metrics":{"cells_per_s":{"value":1,"unit":"cells/s"}}}` + "\n")
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{1000, 1010, 990, 1005, 995})
	same := write("same.jsonl", []float64{1001, 999, 1004, 996, 1000})
	slow := write("slow.jsonl", []float64{600, 605, 595, 602, 598})

	var out bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, io.Discard); code != 0 {
		t.Fatalf("same: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") || !strings.Contains(out.String(), "n=5/5") {
		t.Errorf("same: output\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, io.Discard); code != 1 {
		t.Fatalf("slow: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("slow: output\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %s in %s, %s is better", i, got, d.name, d.unit, d.better)
		}
	}
}
