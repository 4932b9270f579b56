// Command experiments runs the paper-reproduction experiment suite
// (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
// outcomes):
//
//	experiments table1         Table 1 feasibility/state-space matrix (E1)
//	experiments ablation       U* vs naive sequence (E14)
//	experiments separation     weak vs global fairness on Protocol 3 (E11)
//	experiments resetablation  Protocol 2 without its reset line (E16)
//	experiments exact          exact expected convergence times (E17)
//	experiments thm11          Theorem 11 beyond model-checkable sizes (E18)
//	experiments trajectory     convergence trajectories (E19)
//	experiments distribution   exact convergence-time distributions (E20)
//	experiments oracle         constructive proof schedules (E21)
//	experiments all            everything above
//
// Every experiment is an entry of experiments.Suite(), which runs,
// renders and names its result; this command loops over it. The
// convergence-cost sweeps E12, E12b and E15 and the fault-recovery
// campaigns E13 and E22 are campaign grids under examples/grids/paper/,
// run by `make paper` through ppanalyze; E23, the count-vs-agent
// differential, is the sim package's TestCountMatchesAgentDistribution,
// and E24, count-engine throughput at N = 10^4…10^8, is its
// BenchmarkCountEngineScale (make bench-count).
//
// Table 1 (E1) is sized by -p (simulation bound), -mcp (exhaustive
// model-check bound), -budget (per-run interaction budget) and
// -workers (goroutines for its exhaustive searches and graph builds;
// cells, and the graphs they check, are equal at any count). `experiments table1` exits 1
// when a cell disagrees with the paper.
//
// With -json the selected experiments are emitted as one JSON document
// on stdout instead of rendered tables (including a "timings" section
// with per-experiment wall-clock times and tags).
//
// Observability (see docs/observability.md): -journal records one
// "experiment" line per experiment run, plus one per Table 1 cell
// (keyed table1/<leader>/<rules>); -metrics prints the timing table,
// -progress-every 1 announces each experiment on stderr as it
// completes, and -pprof captures CPU/heap profiles. The seed actually
// used is always reported, including when -seed 0 auto-derives one.
//
// SIGINT interrupts the suite cleanly: the running experiment
// finishes, remaining experiments are journaled as skipped, the
// journal is flushed, and the process exits 130. A second SIGINT
// kills the process immediately.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"popnaming/internal/experiments"
	"popnaming/internal/obs"
	"popnaming/internal/report"
)

// listSuite renders the suite registry: one row per experiment with
// its DESIGN.md tag, CLI selector and description.
func listSuite(w io.Writer) {
	tab := report.NewTable("experiment suite (run with: experiments <key>)",
		"tag", "key", "description")
	for _, e := range experiments.Suite() {
		tab.AddRow(e.Tag, e.Key, e.Description)
	}
	tab.Render(w)
}

// checkFlags rejects, at flag-parse time, the bounds the protocol
// constructors cannot take.
func checkFlags(p, mcp int) error {
	if p < 2 {
		return fmt.Errorf("-p %d: the population bound must be at least 2", p)
	}
	if mcp < 2 {
		return fmt.Errorf("-mcp %d: the model-check bound must be at least 2", mcp)
	}
	return nil
}

// suiteRunner times each selected experiment, journals it, and keeps
// the timing records for the -metrics table and -json output.
type suiteRunner struct {
	sink     *obs.JournalSink
	progress int
	timings  []obs.ExperimentRec
	ok       bool
	// interrupted reports whether SIGINT arrived; once true, run skips
	// every remaining experiment but still journals it as skipped, so
	// the partial journal says exactly what did and did not happen.
	interrupted func() bool
}

// run executes one suite entry's body, which returns whether the
// experiment's checks passed.
func (sr *suiteRunner) run(e experiments.SuiteEntry, body func() bool) {
	if sr.interrupted != nil && sr.interrupted() {
		rec := obs.NewExperimentRec(e.Key, e.Tag, false, 0)
		rec.Skipped = true
		rec.Detail = "skipped: interrupted"
		sr.timings = append(sr.timings, rec)
		sr.sink.Emit(rec)
		return
	}
	start := time.Now()
	ok := body()
	rec := obs.NewExperimentRec(e.Key, e.Tag, ok, time.Since(start).Nanoseconds())
	rec.Detail = e.Description
	sr.timings = append(sr.timings, rec)
	sr.sink.Emit(rec)
	if sr.progress > 0 && len(sr.timings)%sr.progress == 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s (%s) done in %v\n",
			e.Key, e.Tag, time.Duration(rec.WallNS).Round(time.Millisecond))
	}
	if !ok {
		sr.ok = false
	}
}

func (sr *suiteRunner) dump(w *os.File) {
	t := report.NewTable("experiment timings", "experiment", "tag", "ok", "wall")
	var total time.Duration
	for _, r := range sr.timings {
		d := time.Duration(r.WallNS)
		total += d
		t.AddRowf(r.Key, r.Tag, r.OK, d.Round(time.Millisecond))
	}
	t.AddRowf("total", "", sr.ok, total.Round(time.Millisecond))
	t.Render(w)
}

// result is one experiment's outcome under its -json field name.
type result struct {
	name string
	v    any
}

// writeJSON prints the -json document: one indented object holding the
// seed, each result in suite order, then the timings. Like omitempty
// fields, empty results are left out.
func writeJSON(w io.Writer, seed int64, results []result, timings []obs.ExperimentRec) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d", seed)
	for _, r := range append(results, result{"timings", timings}) {
		raw, err := json.MarshalIndent(r.v, "  ", "  ")
		if err != nil {
			return err
		}
		if s := string(raw); s != "null" && s != "[]" {
			fmt.Fprintf(&b, ",\n  %q: %s", r.name, raw)
		}
	}
	b.WriteString("\n}\n")
	_, err := w.Write(b.Bytes())
	return err
}

func main() {
	var (
		seedFlag = flag.Int64("seed", 1, "random seed (0: auto-derive from the clock; the seed used is reported)")
		p        = flag.Int("p", 6, "population bound for table1 simulation checks")
		mcp      = flag.Int("mcp", 3, "population bound for exhaustive model checks")
		budget   = flag.Int("budget", 20_000_000, "per-run interaction budget for table1")
		workers  = flag.Int("workers", 1, "worker goroutines for table1's exhaustive searches and graph builds (throughput only: cells and graphs are equal at any count)")
		asJSON   = flag.Bool("json", false, "emit structured JSON instead of tables")
		journal  = flag.String("journal", "", "write a JSONL run journal to this file (see docs/observability.md)")
		metrics  = flag.Bool("metrics", false, "print the per-experiment timing table")
		progress = flag.Int("progress-every", 0, "announce every k-th completed experiment on stderr (0: off)")
		pprofPfx = flag.String("pprof", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		list     = flag.Bool("list", false, "list the experiment suite (tag, selector, description) and exit")
	)
	flag.Parse()

	if *list {
		listSuite(os.Stdout)
		return
	}
	if err := checkFlags(*p, *mcp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	opts := experiments.SuiteOptions{P: *p, ModelCheckP: *mcp, Budget: *budget, Workers: *workers}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if which != "all" {
		if _, found := experiments.SuiteLookup(which); !found {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want all | %v)\n",
				which, experiments.SuiteKeys())
			os.Exit(2)
		}
	}

	seed, derived := obs.ResolveSeed(*seedFlag)
	opts.Seed = seed
	seedOut := os.Stdout
	if *asJSON {
		seedOut = os.Stderr
	}
	note := ""
	if derived {
		note = " (auto-derived)"
	}
	fmt.Fprintf(seedOut, "experiments: seed %d%s\n", seed, note)

	sink, finish, err := obs.OpenRun("experiments", *journal, *pprofPfx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	// First SIGINT sets the flag: remaining experiments are skipped,
	// and the journal is flushed before exiting 130. Stopping signal
	// delivery after the first one restores the default disposition,
	// so a second SIGINT kills the process the ordinary way.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		interrupted.Store(true)
		signal.Stop(sigc)
		fmt.Fprintln(os.Stderr, "experiments: interrupt — finishing up, flushing journal (^C again to kill)")
	}()

	sr := &suiteRunner{sink: sink, progress: *progress, ok: true, interrupted: interrupted.Load}
	if sink != nil {
		// A nil *JournalSink in the obs.Sink interface would be a
		// non-nil sink, so set it only here.
		opts.Sink = sink
		hdr := obs.NewHeader("experiments")
		hdr.P = *p
		hdr.Seed = seed
		hdr.SeedDerived = derived
		sink.Emit(hdr)
	}

	var results []result
	for _, e := range experiments.Suite() {
		if which != "all" && which != e.Key {
			continue
		}
		sr.run(e, func() bool {
			v, ok := e.Run(opts)
			if *asJSON {
				results = append(results, result{e.JSON, v})
			} else {
				e.Render(os.Stdout, v)
				fmt.Println()
			}
			return ok
		})
	}

	if *asJSON {
		if err := writeJSON(os.Stdout, seed, results, sr.timings); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *metrics {
		sr.dump(seedOut)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: journal:", err)
		os.Exit(1)
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; partial results journaled")
		os.Exit(130)
	}
	if !sr.ok {
		fmt.Fprintln(os.Stderr, "experiments: some experiment checks failed")
		os.Exit(1)
	}
}
