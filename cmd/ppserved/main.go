// Command ppserved is the long-running simulation service: an HTTP
// server exposing the engine and experiment harness as a job queue
// with streaming NDJSON results and live metrics (see docs/service.md
// for the API).
//
// Usage:
//
//	ppserved -addr :8080 -workers 4 -queue 64
//	ppserved -addr 127.0.0.1:0 -journal service.jsonl -grace 30s
//
// Endpoints: POST /v1/jobs submits a job (kinds sim, batch, table1);
// GET /v1/jobs lists jobs; GET /v1/jobs/{id} shows one;
// GET /v1/jobs/{id}/results streams the result records; POST
// /v1/jobs/{id}/cancel cancels; GET /metrics renders the service and
// simulation metric tables (?format=prometheus for text exposition
// format 0.0.4); GET /healthz reports liveness; GET /readyz reports
// readiness (503 while draining or queue-saturated). -debug-addr
// mounts net/http/pprof on a separate listener for profiling.
//
// Result cache: an identical seeded resubmission is answered, without
// re-simulation, by the job that ran the spec: Location and the view
// name it, and no new job is admitted or stored. The cache is an index
// over -store, with no budget of its own. A hit whose request sends
// Accept: application/x-ndjson gets that job's stored result stream in
// the POST response (200), saving the GET round trip; every other
// submission answers 202 with the job view.
//
// Shutdown: on SIGTERM or SIGINT the server stops admitting jobs
// (503), finishes the queued and running ones within -grace, then
// escalates to cooperative cancellation — partial results are
// streamed and journaled — flushes the journal and exits 0. A second
// signal cancels the grace period immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"popnaming/internal/obs"
	"popnaming/internal/serve"
	"popnaming/internal/serve/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", 0, "job worker pool size (0: GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "job queue capacity (beyond it submissions get 429)")
		journal   = flag.String("journal", "", "write the service journal (JSONL job records) to this file")
		grace     = flag.Duration("grace", 30*time.Second, "drain grace period before in-flight jobs are canceled")
		debugAddr = flag.String("debug-addr", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060); off when empty")
		storeKind = flag.String("store", "memory", "job store: memory (jobs die with the process) or wal (durable; requires -store-dir)")
		storeDir  = flag.String("store-dir", "", "WAL store directory (created if absent; required with -store wal)")

		peers        = flag.String("peers", "", "comma-separated base URLs of peer ppserved nodes; untraced batch jobs shard across them (empty: standalone)")
		leaseTrials  = flag.Int("lease-trials", 0, "trials per lease when sharding batch jobs across peers (0: 64)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "ceiling on one lease attempt at a peer (0: 2m); the effective deadline adapts to observed batch wall times")
		distRetries  = flag.Int("dist-retries", 0, "peer re-issues per lease before it is pinned to local execution (0: 3; negative: first failure falls back local)")
	)
	flag.Parse()
	opts := distOptions{peers: *peers, leaseTrials: *leaseTrials, leaseTimeout: *leaseTimeout, retries: *distRetries}
	if err := run(*addr, *workers, *queue, *journal, *grace, *debugAddr, *storeKind, *storeDir, opts); err != nil {
		fmt.Fprintln(os.Stderr, "ppserved:", err)
		os.Exit(1)
	}
}

// distOptions groups the sharded-execution flags.
type distOptions struct {
	peers        string
	leaseTrials  int
	leaseTimeout time.Duration
	retries      int
}

func run(addr string, workers, queue int, journal string, grace time.Duration, debugAddr, storeKind, storeDir string, opts distOptions) error {
	cfg := serve.Config{Workers: workers, QueueCap: queue,
		LeaseTrials: opts.leaseTrials, LeaseTimeout: opts.leaseTimeout, DistRetries: opts.retries}
	if opts.peers != "" {
		for _, p := range strings.Split(opts.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	switch storeKind {
	case "memory":
		if storeDir != "" {
			return fmt.Errorf("-store-dir is only meaningful with -store wal")
		}
	case "wal":
		if storeDir == "" {
			return fmt.Errorf("-store wal requires -store-dir")
		}
		wal, err := store.OpenWAL(storeDir)
		if err != nil {
			return err
		}
		defer wal.Close()
		cfg.Store = wal
	default:
		return fmt.Errorf("unknown -store %q (memory | wal)", storeKind)
	}
	var closeJournal func() error
	if journal != "" {
		sink, closeFn, err := obs.OpenJournal(journal)
		if err != nil {
			return err
		}
		cfg.Sink = sink
		closeJournal = closeFn
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("ppserved: listening on %s (workers %d, queue %d, store %s)\n",
		ln.Addr(), effectiveWorkers(workers), queue, storeKind)
	if len(cfg.Peers) > 0 {
		fmt.Printf("ppserved: sharding batch jobs across %d peer(s): %s\n",
			len(cfg.Peers), strings.Join(cfg.Peers, ", "))
	}

	// The pprof listener is opt-in and separate from the service
	// listener, so profiling endpoints are never exposed on the
	// service address. It dies with the process; no drain needed.
	if debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("ppserved: pprof on %s\n", dln.Addr())
		go func() { _ = http.Serve(dln, dmux) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Printf("ppserved: %v: draining (grace %v)\n", sig, grace)
	case err := <-serveErr:
		return err
	}

	// Drain with the grace period; a second signal cancels it. The
	// HTTP listener stays up during the drain so streaming clients
	// finish reading and late submissions get a clean 503.
	graceCtx, cancelGrace := context.WithTimeout(context.Background(), grace)
	defer cancelGrace()
	go func() {
		<-sigs
		fmt.Println("ppserved: second signal: canceling in-flight jobs")
		cancelGrace()
	}()
	srv.Drain(graceCtx)

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	_ = httpSrv.Shutdown(shutdownCtx)

	if closeJournal != nil {
		if err := closeJournal(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	fmt.Println("ppserved: drained, exiting")
	return nil
}

// effectiveWorkers mirrors serve.New's worker default for the startup
// line.
func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
