package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"popnaming/internal/grid"
	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/serve/store"
)

// smallGrid is the campaign the three small-cell workloads share: 24
// cells of exact-size populations (N = P ≤ 16 is what users sweep by
// the thousand), with faults and arbitrary starts so every cell kind of
// the reducer and the plots is exercised.
const smallGrid = `{"protocols":["asym","selfstab","symglobal"],"populations":[{"p":6,"n":4},{"p":6,"n":6}],"inits":["zero","arbitrary"],"faults":["","@100:corrupt=2"],"trials":4,"budget":300000}`

// The sim-heavy grids are the long runs: agent-engine cells at P = N = 64
// and count-engine cells at N = 10⁶, where N > P makes naming
// unachievable, so every count trial runs its whole budget. The agent
// grid has one cell and the count grid two, so a pass's median cell is a
// count cell, whose work is fixed, and not a point in the gap between
// the two engines' times that moves with the agent cell's convergence.
// An initleader agent cell would add no engine work, since it converges
// at once, only a second cell below that gap.
const (
	agentGrid = `{"protocols":["asym"],"populations":[{"p":64,"n":64}],"trials":8}`
	countGrid = `{"protocols":["asym","selfstab"],"engines":["count"],"populations":[{"p":64,"n":1000000}],"trials":2,"budget":2000000}`
)

type path int

const (
	pathLocal  path = iota // grid.LocalRunner in-process
	pathServer             // grid.ServerRunner against an in-process ppserved
	pathCached             // pathServer, every submission a cache hit
)

// A workload is one campaign mix. Every pass runs its grids through
// grid.Campaign.Execute with the pass's master seed.
type workload struct {
	name    string
	why     string
	grids   []string
	clients int // concurrent campaign cells (Campaign.Workers)
	path    path
	// passes is the work of one run, 15–25 s on the reference host
	// (README). It is fixed so that peak RSS and GC counts compare at
	// equal work; the -seconds window caps it in the host's slowest
	// phases.
	passes int
	// checks is the expected wall time beyond the measuring window (setup
	// repetitions, verification, teardown); the runaway guard allows 4×
	// the window plus this.
	checks time.Duration
}

var workloads = []workload{
	{name: "local-small", grids: []string{smallGrid}, clients: 1, path: pathLocal, passes: 950, checks: 10 * time.Second,
		why: "tiny exact-size cells in-process: per-cell overhead (admission, journal, reduce, artifact files) rivals simulation"},
	{name: "server-cold", grids: []string{smallGrid}, clients: 2, path: pathServer, passes: 700, checks: 10 * time.Second,
		why: "local-small's cells through ppserved over loopback HTTP with a WAL store, every lookup a cache miss"},
	{name: "server-cached", grids: []string{smallGrid}, clients: 2, path: pathCached, passes: 800, checks: 10 * time.Second,
		why: "one fixed grid resubmitted after a WAL restart: every cell a cache hit, zero simulation, isolates the cache path"},
	{name: "sim-heavy", grids: []string{agentGrid, countGrid}, clients: 1, path: pathLocal, passes: 28, checks: 10 * time.Second,
		why: "agent cells at N=64 and count cells at N=10^6: the engine dominates and every overhead optimization is bypassed"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pinnedDigests are the first-pass summary digests at the default seed.
// The three small-cell workloads share one grid and, for pass 0, one
// seed, so they pin the same value: local ≡ service ≡ cached.
var pinnedDigests = map[string]string{
	"local-small":   "f6ff27591ae27876ebe2323cef56cadd7bbdd4fe63162304a687b50229097da5",
	"server-cold":   "f6ff27591ae27876ebe2323cef56cadd7bbdd4fe63162304a687b50229097da5",
	"server-cached": "f6ff27591ae27876ebe2323cef56cadd7bbdd4fe63162304a687b50229097da5",
	"sim-heavy":     "39245a865d29394351e008b09e0d71d003740958e07e170000ffc6f5126f5d34",
}

// defaultSeed is the seed the pinned digests belong to.
const defaultSeed = 1

// passSeed is pass k's master seed: splitmix64 over the workload seed
// and k. It is never 0, which the grid schema reads as "derive a seed
// from the clock".
func passSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return int64(z)
}

// masterSeed is pass k's master seed. server-cached resubmits one fixed
// grid, the default seed's first pass, whatever the run's seed: its
// work is the same in every run, and its digest is always the pinned
// one.
func (w workload) masterSeed(seed int64, k int) int64 {
	if w.path == pathCached {
		return passSeed(defaultSeed, 0)
	}
	return passSeed(seed, k)
}

// env is a set-up workload, ready for timed passes.
type env struct {
	specs  []*grid.Spec
	inner  grid.CellRunner // LocalRunner or *ServerRunner
	node   *node           // nil on the local path
	client *http.Client
	warm   [32]byte // server-cached: the warm pass's summary digest
}

func (e *env) close() error {
	if e.node == nil {
		return nil
	}
	e.client.CloseIdleConnections()
	return e.node.close()
}

// node is an in-process ppserved: a WAL store, serve.Server and a
// loopback HTTP listener.
type node struct {
	wal  *store.WAL
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startNode opens (and so replays) the WAL in dir and serves it on a
// loopback port. With a recorder, the store, the service journal and the
// handler are wrapped for tracing.
func startNode(dir string, rec *recorder) (*node, error) {
	wal, err := store.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Workers: 2, Store: wal}
	if rec != nil {
		cfg.Store = &tracedStore{JobStore: wal, rec: rec}
		cfg.Sink = tracedSink{rec}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		wal.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		wal.Close()
		return nil, err
	}
	n := &node{wal: wal, srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops the listener, drains the job service and closes the WAL,
// returning once the serving goroutine has exited.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	n.srv.Drain(ctx)
	if cerr := n.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// setup parses and validates the workload's grids and, on the server
// paths, opens the WAL and starts the node. server-cached also runs its
// warm pass cold, stops the node and starts it again on the same WAL,
// so the timed window starts from a replayed store and cache.
func (w workload) setup(dir string, seed int64, rec *recorder) (*env, error) {
	e := &env{}
	for _, g := range w.grids {
		sp, err := grid.Parse(strings.NewReader(g))
		if err != nil {
			return nil, err
		}
		sp.Name = w.name
		sp.Seed = w.masterSeed(seed, 0)
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		e.specs = append(e.specs, sp)
	}
	if w.path == pathLocal {
		e.inner = grid.LocalRunner{}
		return e, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "wal")
	n, err := startNode(walDir, rec)
	if err != nil {
		return nil, err
	}
	e.node = n
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	if rec != nil {
		e.client.Transport = &tracingTransport{inner: e.client.Transport, rec: rec}
	}
	sr := grid.NewServerRunner(n.base)
	sr.Peer.Client = e.client
	e.inner = sr
	if w.path != pathCached {
		return e, nil
	}
	warm := &passer{w: w, e: e, runner: &cellRunner{inner: sr}, dir: dir}
	pr := warm.pass(context.Background(), 0, w.masterSeed(seed, 0))
	if len(pr.errs) > 0 {
		e.close()
		return nil, fmt.Errorf("warm pass: %s", pr.errs[0])
	}
	e.warm = pr.digest
	e.client.CloseIdleConnections()
	if err := n.close(); err != nil {
		return nil, fmt.Errorf("stop node after warm pass: %w", err)
	}
	if e.node, err = startNode(walDir, rec); err != nil {
		return nil, err
	}
	sr.Peer.Base = e.node.base
	return e, nil
}

// passer runs passes of one set-up workload.
type passer struct {
	w      workload
	e      *env
	runner *cellRunner
	rec    *recorder // non-nil only while the pass is traced
	dir    string
}

// passResult is one pass: what the timed Execute calls cost and what
// the artifacts showed.
type passResult struct {
	window  time.Duration // Σ Execute wall time
	cells   int
	bad     int // failed or invariant-violating cells
	steps   int64
	mallocs uint64
	gcs     uint32
	digest  [32]byte // SHA-256 over the pass's summary.csv files
	errs    []string
}

// pass runs every grid of the workload once at master seed ms and checks
// the results. Only the Execute calls are timed; reading the journals
// back, hashing and removing the output come after.
func (p *passer) pass(ctx context.Context, k int, ms int64) passResult {
	var pr passResult
	h := sha256.New()
	var pass *span
	if p.rec != nil {
		pass = p.rec.start("grid.pass", "", 0)
		ctx = withSpan(ctx, pass)
	}
	for gi, base := range p.e.specs {
		sp := *base
		sp.Seed = ms
		out := filepath.Join(p.dir, fmt.Sprintf("pass%d-%d", k, gi))
		cp := &grid.Campaign{Spec: &sp, Runner: p.runner, Out: out, Workers: p.w.clients}
		var exec *span
		ectx := ctx
		if p.rec != nil {
			exec = p.rec.start("grid.execute", "", pass.ID)
			ectx = withSpan(ctx, exec)
		}
		p.runner.reset()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := cp.Execute(ectx)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if exec != nil {
			p.rec.finish(exec)
		}
		pr.window += d
		pr.mallocs += m1.Mallocs - m0.Mallocs
		pr.gcs += m1.NumGC - m0.NumGC
		cells := sp.Cells()
		pr.cells += len(cells)
		if err != nil {
			pr.bad += len(cells)
			pr.errs = append(pr.errs, fmt.Sprintf("pass %d: %v", k, err))
			os.RemoveAll(out)
			continue
		}
		p.check(&sp, cp, res, exec, &pr)
		sum, err := os.ReadFile(filepath.Join(out, "summary.csv"))
		if err != nil {
			pr.errs = append(pr.errs, fmt.Sprintf("pass %d: %v", k, err))
		}
		h.Write(sum)
		if exec != nil {
			p.traceArtifacts(&sp, cp, res, exec)
		}
		if err := os.RemoveAll(out); err != nil {
			pr.errs = append(pr.errs, fmt.Sprintf("pass %d: %v", k, err))
		}
	}
	if pass != nil {
		p.rec.finish(pass)
	}
	h.Sum(pr.digest[:0])
	return pr
}

// check enforces the per-cell invariants on a finished Execute: no
// campaign failure, a batch summary covering the spec's trials, every
// fault-free agent cell converged, and every count cell ran its whole
// budget. It reads each journal back (obs.ReadJournal), which in a
// traced pass is the obs read measurement.
func (p *passer) check(sp *grid.Spec, cp *grid.Campaign, res *grid.Result, exec *span, pr *passResult) {
	failed := make(map[int]bool, len(res.Failed))
	for _, f := range res.Failed {
		failed[f.Cell.Index] = true
		pr.bad++
		pr.errs = append(pr.errs, fmt.Sprintf("cell %s (seed %d): %v", f.Cell.ID(), sp.Seed, f.Err))
	}
	for _, c := range res.Cells {
		if failed[c.Index] {
			continue
		}
		var batch *obs.BatchSummaryRec
		var records int64
		var read *span
		if exec != nil {
			read = p.rec.start("obs.read", "", exec.ID)
		}
		f, err := os.Open(cp.JournalPath(c))
		if err == nil {
			_, err = obs.ReadJournal(f, func(r obs.Rec) error {
				records++
				if r.Batch != nil {
					batch = r.Batch
				}
				return nil
			})
			f.Close()
		}
		if read != nil {
			read.set("records", records)
			p.rec.finish(read)
		}
		var why string
		switch {
		case err != nil:
			why = err.Error()
		case batch == nil:
			why = "no batch_summary record"
		case batch.Trials != sp.Trials:
			why = fmt.Sprintf("batch_summary.trials %d, spec %d", batch.Trials, sp.Trials)
		case c.Engine == "agent" && c.Fault == "" && batch.Converged != batch.Trials:
			why = fmt.Sprintf("fault-free agent cell converged %d of %d", batch.Converged, batch.Trials)
		case c.Engine == "count" && batch.TotalSteps != int64(sp.Trials)*int64(sp.Budget):
			why = fmt.Sprintf("count cell totalSteps %d, want %d", batch.TotalSteps, int64(sp.Trials)*int64(sp.Budget))
		}
		if why != "" {
			pr.bad++
			pr.errs = append(pr.errs, fmt.Sprintf("cell %s (seed %d): %s", c.ID(), sp.Seed, why))
			continue
		}
		pr.steps += batch.TotalSteps
		if s := p.runner.spanOf(c.Index); s != nil {
			s.set("steps", batch.TotalSteps)
			if c.Engine == "count" {
				s.set("count_engine", 1)
			}
		}
	}
}

// traceArtifacts times, on a traced pass, the pipeline stages Execute
// runs internally after the cells — validation, reduction and artifact
// rendering — by calling them again on the pass's journals, and counts
// the files the pass wrote. None of it is inside the timed window.
func (p *passer) traceArtifacts(sp *grid.Spec, cp *grid.Campaign, res *grid.Result, exec *span) {
	cells := int64(len(res.Cells))
	s := p.rec.start("grid.validate", "", exec.ID)
	err := sp.Validate()
	s.set("cells", cells)
	p.rec.finish(s)
	if err != nil {
		return
	}

	var n int64
	s = p.rec.start("grid.reduce", "", exec.ID)
	stats, err := grid.Reduce(sp, res.Cells, func(c grid.Cell) (io.ReadCloser, error) {
		f, err := os.Open(cp.JournalPath(c))
		if err != nil {
			return nil, err
		}
		return &countingReader{ReadCloser: f, n: &n}, nil
	})
	s.set("cells", cells)
	s.set("bytes", n)
	p.rec.finish(s)
	if err != nil {
		return
	}

	s = p.rec.start("report.render", "", exec.ID)
	tab := grid.SummaryTable(sp, stats)
	tab.Render(io.Discard)
	_ = tab.RenderCSV(io.Discard)   // io.Discard never fails
	_ = tab.RenderLaTeX(io.Discard) // io.Discard never fails
	for _, cs := range stats {
		cdf := grid.ConvergenceCDF(cs)
		cdf.RenderASCII(io.Discard, 72, 20)
		_ = cdf.RenderSVG(io.Discard, 640, 400) // io.Discard never fails
	}
	p.rec.finish(s)

	var files int64
	_ = filepath.WalkDir(cp.Out, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files++
		}
		return nil
	})
	exec.set("files", files)
	exec.set("cells", cells)
}

type countingReader struct {
	io.ReadCloser
	n *int64
}

func (r *countingReader) Read(b []byte) (int, error) {
	n, err := r.ReadCloser.Read(b)
	*r.n += int64(n)
	return n, err
}

// cacheCounters scrapes the node's result-cache hit and miss totals.
func cacheCounters(c *http.Client, base string) (hits, misses int64, err error) {
	resp, err := c.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	read := func(name string) (int64, error) {
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(body)
		if m == nil {
			return 0, fmt.Errorf("no %s in /metrics", name)
		}
		return strconv.ParseInt(string(m[1]), 10, 64)
	}
	if hits, err = read("ppserved_cache_hits_total"); err != nil {
		return 0, 0, err
	}
	misses, err = read("ppserved_cache_misses_total")
	return hits, misses, err
}

func hexDigest(d [32]byte) string { return hex.EncodeToString(d[:]) }
