// Command bench is the repository benchmark: four campaign workloads
// driven through the real ppanalyze pipeline (grid.Campaign.Execute),
// in-process or against an in-process ppserved over loopback HTTP. One
// run does one workload's fixed number of passes, stopping early only
// when they outlast -seconds, checks every pass's outputs, and prints as
// its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run alternates traced and untraced passes and reports the per-layer
// metrics, writing its spans as JSONL to -spans. See README.md.
//
//	bash bench/run.sh -workload local-small -seed 1 -seconds 30 -trace 0
//	go run . -workload all -out results.jsonl       (from bench/)
//	go run . -compare base.jsonl change.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"popnaming/internal/grid"
	"popnaming/internal/stats"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	passes  int // pass count for tests; 0 takes the workload's
	setups  int // set-up count for tests; 0 takes setupReps
	trace   bool
	spans   string
	tmp     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Passes   int    `json:"passes"`
	Digest   string `json:"digest"`
	Host     host   `json:"host"`
	summary
}

// host describes where a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPU        string `json:"cpu"`
	Tmp        string `json:"tmp"`
	TmpFS      string `json:"tmpFs"` // "tmpfs" or "disk"
	// Speed is the run's host speed relative to the reference host, by
	// which its timing metrics were scaled.
	Speed float64 `json:"speed,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "all", "workload to run: "+workloadNames()+" or all (each in its own process)")
		seed    = fl.Int64("seed", defaultSeed, "workload seed; pass k runs master seed splitmix(seed, k)")
		seconds = fl.Float64("seconds", 30, "cap on the measuring window in seconds")
		trace   = fl.Int("trace", 0, "1: alternate traced and untraced passes and report per-layer metrics")
		spans   = fl.String("spans", "", "traced run's span JSONL (default .bench_build/spans-<workload>.jsonl)")
		tmp     = fl.String("tmp", filepath.Join(".bench_build", "work"), "directory for campaign output and the WAL")
		out     = fl.String("out", "", "append the run's full record (host, digest, metrics) to this JSONL file")
		compare = fl.Bool("compare", false, "compare two -out files: bench -compare BASE CHANGE")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare BASE.jsonl CHANGE.jsonl")
			return 2
		}
		return runCompare(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, spans: *spans, tmp: *tmp,
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (%s)\n", *name, workloadNames())
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}

	// Runaway guard: a workload far past its expected time is broken, and
	// must not eat the time budget of the runs after it.
	limit := 4 * (o.seconds + w.checks)
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	guard := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "bench: workload %s exceeded 4x its expected time (%v); aborting\n", w.name, limit)
		os.Exit(3)
	})
	defer guard.Stop()

	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h := hostInfo(o.tmp)
	fmt.Fprintf(stdout, "bench: workload %s seed %d trace %t; campaign output in %s (%s)\n",
		w.name, o.seed, o.trace, h.Tmp, h.TmpFS)
	hj, _ := json.Marshal(h) // host has only plain fields
	fmt.Fprintf(stdout, "host %s\n", hj)

	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for i, e := range res.errs {
		if i == 10 {
			fmt.Fprintf(stderr, "bench: ... %d more\n", len(res.errs)-i)
			break
		}
		fmt.Fprintln(stderr, "bench: FAIL:", e)
	}
	fmt.Fprintf(stdout, "bench: %d passes, %d cells, %d failed, first-pass digest %s\n",
		res.passes, res.Attempted, res.Failed, res.digest)
	if *out != "" {
		h.Speed = res.speed
		rec := record{Workload: w.name, Seed: o.seed, Trace: o.trace, Passes: res.passes, Digest: res.digest, Host: h, summary: res.summary}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runAll runs every workload in its own child process, so peak RSS and
// GC state do not carry from one workload to the next.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcome is a finished run.
type outcome struct {
	summary
	speed  float64 // host speed relative to the reference (calibrate.go)
	passes int
	digest string
	errs   []string
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed passes. setupRounds
// calibration rounds follow each set-up.
const (
	setupReps   = 31
	setupRounds = 3
)

// A block is a run of consecutive untraced passes, at least blockWindow
// of Execute time and blockCells cells, with the calibration rounds that
// ran after them. The timing metrics of a run are medians over its
// blocks, each at the block's own host speed, so a slowdown of the host
// that covers less than half the run does not move them, and one that
// covers more is mostly cancelled.
type block struct {
	window    time.Duration
	cells     int
	steps     int64
	durs      []float64 // cell times in ns
	calRounds int
	calTime   time.Duration
}

const (
	blockWindow = 500 * time.Millisecond
	blockCells  = 6
)

func (b *block) full() bool { return b.window >= blockWindow && b.cells >= blockCells }

func (b *block) add(o block) {
	b.window += o.window
	b.cells += o.cells
	b.steps += o.steps
	b.durs = append(b.durs, o.durs...)
	b.calRounds += o.calRounds
	b.calTime += o.calTime
}

// speed is the host's speed during the block, from the mean time of its
// calibration rounds.
func (b *block) speed() float64 { return speedOf(b.calRounds, b.calTime) }

// timing is a run's timing metrics; speed is its median block speed.
type timing struct{ cps, ips, p50ms, p90ms, speed float64 }

// blockMetrics are the end-to-end timing metrics: for each, the median
// over the blocks of the block's value, as timed and at the reference
// speed. The passes after the last full block join it.
func blockMetrics(blocks []block, rest block) (ref, timed timing) {
	if n := len(blocks); n == 0 {
		blocks = append(blocks, rest)
	} else {
		blocks[n-1].add(rest)
	}
	n := len(blocks)
	var r, t [4][]float64
	speeds := make([]float64, n)
	for k, b := range blocks {
		secs := b.window.Seconds()
		sort.Float64s(b.durs)
		v := [4]float64{
			float64(b.cells) / secs,
			float64(b.steps) / secs,
			stats.Quantile(b.durs, 0.5) / 1e6,
			stats.Quantile(b.durs, 0.9) / 1e6,
		}
		s := b.speed()
		speeds[k] = s
		for i := range v {
			t[i] = append(t[i], v[i])
			if i < 2 { // rates
				r[i] = append(r[i], v[i]/s)
			} else { // times
				r[i] = append(r[i], v[i]*s)
			}
		}
	}
	ref = timing{median(r[0]), median(r[1]), median(r[2]), median(r[3]), median(speeds)}
	timed = timing{median(t[0]), median(t[1]), median(t[2]), median(t[3]), 1}
	return ref, timed
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return stats.Quantile(xs, 0.5)
}

// runWorkload sets the workload up, runs its passes and computes the
// metrics: end-to-end ones from the untraced passes, per-layer ones
// from the spans of the traced passes.
func runWorkload(w workload, o options, log io.Writer) (*outcome, error) {
	root, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	// Each set-up is taken at the host speed that the calibration rounds
	// right after it show, as each block of passes is below.
	cal := newCalibrator()
	var setups, setupsAsTimed []float64
	var e *env
	reps := setupReps
	if o.setups > 0 {
		reps = o.setups
	}
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		// A set-up on a collected heap reuses memory. Without the GC the
		// set-ups before the process's first collection fault in fresh
		// pages and take half again as long as those after it, and the
		// median falls on either side of that step from run to run.
		runtime.GC()
		t0 := time.Now()
		e, err = w.setup(filepath.Join(root, fmt.Sprintf("setup%d", i)), o.seed, rec)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupsAsTimed = append(setupsAsTimed, d)
		setups = append(setups, d*speedOf(setupRounds, cal.rounds(setupRounds)))
	}
	defer e.close()

	p := &passer{w: w, e: e, runner: &cellRunner{inner: e.inner, rec: rec}, dir: root}
	var hits0, misses0 int64
	if w.path == pathCached {
		if hits0, misses0, err = cacheCounters(e.client, e.node.base); err != nil {
			return nil, err
		}
	}

	type side struct {
		window time.Duration
		cells  int
		steps  int64
		allocs uint64
		gcs    uint32
	}
	var plain, traced side
	var blocks []block
	var cur block
	out := &outcome{}
	var digests [][32]byte
	passes := w.passes
	if o.passes > 0 {
		passes = o.passes
	}
	// A traced run needs a traced and an untraced pass for its overhead.
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	ctx := context.Background()
	start := time.Now()
	for k := 0; k < passes; k++ {
		if k >= minPasses && time.Since(start) >= o.seconds {
			break
		}
		t0 := time.Now()
		ms := w.masterSeed(o.seed, k)
		// Even passes are traced, so a one-pass traced run still traces.
		isTraced := rec != nil && k%2 == 0
		p.rec = nil
		if isTraced {
			p.rec = rec
			rec.on.Store(true)
		}
		pr := p.pass(ctx, k, ms)
		if isTraced && e.node != nil {
			settle(rec)
		}
		if rec != nil {
			rec.on.Store(false)
		}
		s := &plain
		if isTraced {
			s = &traced
		}
		s.window += pr.window
		s.cells += pr.cells
		s.steps += pr.steps
		s.allocs += pr.mallocs
		s.gcs += pr.gcs
		durs := p.runner.takeDurations()
		if !isTraced {
			// The calibration rounds run while the campaign is idle.
			rounds, calTime := cal.after(time.Since(t0))
			cur.add(block{window: pr.window, cells: pr.cells, steps: pr.steps, calRounds: rounds, calTime: calTime})
			for _, d := range durs {
				cur.durs = append(cur.durs, float64(d))
			}
			if cur.full() {
				blocks = append(blocks, cur)
				cur = block{}
			}
		}
		out.Attempted += pr.cells
		out.Failed += pr.bad
		out.errs = append(out.errs, pr.errs...)
		digests = append(digests, pr.digest)
		if w.path == pathCached && pr.digest != e.warm {
			out.errs = append(out.errs, fmt.Sprintf("pass %d: cached summary differs from the warm pass", k))
		}
	}
	out.passes = len(digests)
	out.digest = hexDigest(digests[0])
	fmt.Fprintf(log, "bench: passes took %.1f s, %.1f s of it in Execute\n",
		time.Since(start).Seconds(), (plain.window + traced.window).Seconds())

	if err := verify(w, o, e, root, digests, hits0, misses0, out); err != nil {
		return nil, err
	}
	out.Correct = out.Failed == 0 && len(out.errs) == 0

	if !o.trace {
		ref, timed := blockMetrics(blocks, cur)
		out.speed = ref.speed
		fmt.Fprintf(log, "bench: timing metrics are medians over %d blocks of at least %v and %d cells\n",
			max(len(blocks), 1), blockWindow, blockCells)
		fmt.Fprintf(log, "bench: as timed here: %.4g cells/s, p50 %.4g ms, p90 %.4g ms, %.4g interactions/s, setup %.4g s\n",
			timed.cps, timed.p50ms, timed.p90ms, timed.ips, median(setupsAsTimed))
		fmt.Fprintf(log, "bench: host speed %.3f of the reference (median over the blocks); metrics below are at the reference speed\n",
			ref.speed)
		out.Metrics = map[string]metric{
			"cells_per_s":        {ref.cps, "cells/s"},
			"cell_p50_ms":        {ref.p50ms, "ms"},
			"cell_p90_ms":        {ref.p90ms, "ms"},
			"interactions_per_s": {ref.ips, "1/s"},
			"setup_s":            {median(setups), "s"},
			"rss_peak_mb":        {rssPeakMiB(), "MiB"},
			"allocs_per_cell":    {float64(plain.allocs) / float64(plain.cells), "allocs"},
		}
		return out, nil
	}

	spans := rec.linked()
	cps := func(s side) float64 {
		if s.window == 0 {
			return 0
		}
		return float64(s.cells) / s.window.Seconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lm := layerMetrics(spans, layerInput{
		setups:       reps,
		gcPerKcell:   float64(plain.gcs+traced.gcs) / (float64(plain.cells+traced.cells) / 1000),
		heapInuseMB:  float64(ms.HeapInuse) / (1 << 20),
		tracedCPS:    cps(traced),
		untracedCPS:  cps(plain),
		tracedPasses: (out.passes + 1) / 2,
		tracedCells:  traced.cells,
	})
	out.Metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out.Metrics[d.name] = metric{lm[d.name], d.unit}
	}
	fmt.Fprintln(log, "per-layer metrics (traced passes):")
	for _, d := range perLayer {
		fmt.Fprintf(log, "  %-30s %16.4f %s\n", d.name, lm[d.name], d.unit)
	}
	printSpanTable(log, spans)
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(o.spans, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "bench: %d spans written to %s\n", len(spans), o.spans)
	return out, nil
}

// settle waits, after a traced server pass, until every job streamed
// has reached the service journal, so the pass's last store and journal
// spans land in it rather than in the untraced pass after.
func settle(rec *recorder) {
	for i := 0; i < 200; i++ {
		rec.mu.Lock()
		var results, jobs int
		for _, s := range rec.spans {
			switch s.Name {
			case "serve.results":
				results++
			case "serve.job":
				jobs++
			}
		}
		rec.mu.Unlock()
		if jobs >= results {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// verify runs the cross-path checks that need the whole run: the first
// and last server-cold passes re-run locally must summarize identically,
// every server-cached submission in the window must have hit the cache,
// and the first-pass digest must equal the pinned one at the default
// seed (always, for server-cached).
func verify(w workload, o options, e *env, dir string, digests [][32]byte, hits0, misses0 int64, out *outcome) error {
	switch w.path {
	case pathServer:
		local := &passer{w: w, e: &env{specs: e.specs}, runner: &cellRunner{inner: grid.LocalRunner{}}, dir: filepath.Join(dir, "verify")}
		check := []int{0}
		if last := len(digests) - 1; last > 0 {
			check = append(check, last)
		}
		for _, k := range check {
			pr := local.pass(context.Background(), k, passSeed(o.seed, k))
			out.errs = append(out.errs, pr.errs...)
			if pr.digest != digests[k] {
				out.errs = append(out.errs, fmt.Sprintf("pass %d: server summary differs from the local run", k))
			}
		}
	case pathCached:
		hits, misses, err := cacheCounters(e.client, e.node.base)
		if err != nil {
			return err
		}
		if hits-hits0 != int64(out.Attempted) || misses != misses0 {
			out.errs = append(out.errs, fmt.Sprintf("cache: %d hits and %d misses for %d cells; want every cell a hit",
				hits-hits0, misses-misses0, out.Attempted))
		}
	}
	if (o.seed == defaultSeed || w.path == pathCached) && out.digest != pinnedDigests[w.name] {
		out.errs = append(out.errs, fmt.Sprintf("first-pass digest %s, pinned %s", out.digest, pinnedDigests[w.name]))
	}
	return nil
}

// rssPeakMiB is the process's peak resident set (VmHWM).
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

func hostInfo(tmp string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", TmpFS: "disk"}
	if abs, err := filepath.Abs(tmp); err == nil {
		h.Tmp = abs
	}
	var st syscall.Statfs_t
	if syscall.Statfs(tmp, &st) == nil && st.Type == tmpfsMagic {
		h.TmpFS = "tmpfs"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
