// Command modelcheck decides convergence of a protocol instance exactly,
// by explicit-state exploration: it builds the full reachability graph
// from every configuration in the chosen start set, then checks
// convergence to a valid naming under global fairness (terminal-SCC
// analysis) and under weak fairness (fair-SCC analysis). When the
// weak-fairness check fails it extracts and prints a concrete
// counterexample lasso: a weakly fair schedule that never converges.
// With -exact it additionally solves the induced absorbing Markov chain
// for the exact expected number of interactions to convergence under the
// uniform-random scheduler.
//
// Usage:
//
//	modelcheck -protocol globalp -p 3 -n 3
//	modelcheck -protocol selfstab -p 2 -n 2 -allleaders
//	modelcheck -protocol asym -p 3 -n 3 -exact
//
// Observability (see docs/observability.md): the checker is fully
// deterministic — it uses no randomness, so the journal header carries
// "deterministic":true instead of a seed. -journal records one "stage"
// line per phase (graph build, global check, weak check, exact
// analysis) plus one "explore" record with graph-build metrics
// (nodes/sec, BFS depth, intern hit rate), -metrics prints the stage
// timings as a table, and -pprof captures CPU/heap profiles. -workers
// parallelizes the graph build; the graph is equal at any worker
// count, node ids included, so every verdict, lasso and exact time is
// too, bit for bit, and stdout differs only in the nodes/s figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/explore"
	"popnaming/internal/markov"
	"popnaming/internal/naming"
	"popnaming/internal/obs"
	"popnaming/internal/report"
	"popnaming/internal/seq"
)

func main() {
	var (
		protoKey   = flag.String("protocol", "globalp", "protocol to check (see namesim -list)")
		p          = flag.Int("p", 3, "population bound P")
		n          = flag.Int("n", 0, "population size N (default P)")
		maxNodes   = flag.Int("maxnodes", 1<<21, "state-space cap")
		workers    = flag.Int("workers", 1, "worker goroutines for the graph build (throughput only: the graph is equal at any count)")
		exact      = flag.Bool("exact", false, "also compute exact expected convergence times")
		allLeaders = flag.Bool("allleaders", false, "start from every leader state in domain (Protocol 2 only)")
		journal    = flag.String("journal", "", "write a JSONL run journal to this file (see docs/observability.md)")
		metrics    = flag.Bool("metrics", false, "print a per-stage timing table after the check")
		pprofPfx   = flag.String("pprof", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()
	if err := checkFlags(*p, *n); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(2)
	}
	if err := run(*protoKey, *p, *n, *maxNodes, *workers, *exact, *allLeaders, *journal, *metrics, *pprofPfx); err != nil {
		fmt.Fprintln(os.Stderr, "modelcheck:", err)
		os.Exit(1)
	}
}

// checkFlags rejects, at flag-parse time, the sizes the protocol
// constructors and the start-set enumeration cannot take: every
// protocol needs P >= 2, and N must not be negative (-n 0 means
// N = P).
func checkFlags(p, n int) error {
	if p < 2 {
		return fmt.Errorf("-p %d: the population bound must be at least 2", p)
	}
	if n < 0 {
		return fmt.Errorf("-n %d: the population size must not be negative", n)
	}
	return nil
}

// stageTimer journals and accumulates per-phase wall-clock timings.
type stageTimer struct {
	sink   *obs.JournalSink
	stages []obs.StageRec
}

// time runs f, records its duration under name, and returns f's error.
func (st *stageTimer) time(name string, f func() (detail string, err error)) error {
	start := time.Now()
	detail, err := f()
	rec := obs.NewStageRec(name, detail, time.Since(start).Nanoseconds())
	st.stages = append(st.stages, rec)
	if st.sink != nil {
		st.sink.Emit(rec)
	}
	return err
}

func (st *stageTimer) dump(w *os.File) {
	t := report.NewTable("stage timings", "stage", "detail", "wall")
	for _, s := range st.stages {
		t.AddRowf(s.Name, s.Detail, time.Duration(s.WallNS).Round(time.Millisecond))
	}
	t.Render(w)
}

func run(protoKey string, p, n, maxNodes, workers int, exact, allLeaders bool, journal string, metrics bool, pprofPfx string) (err error) {
	spec, err := experiments.Lookup(protoKey)
	if err != nil {
		return err
	}
	if n == 0 {
		n = p
	}
	proto := spec.New(p)

	sink, finish, err := obs.OpenRun("modelcheck", journal, pprofPfx)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	st := &stageTimer{sink: sink}

	starts, err := buildStarts(proto, n, allLeaders)
	if err != nil {
		return err
	}
	fmt.Printf("protocol %s (P=%d, %d states), N=%d, %d starting configurations (deterministic, no RNG)\n",
		proto.Name(), p, proto.States(), n, len(starts))

	if st.sink != nil {
		hdr := obs.NewHeader("modelcheck")
		hdr.Protocol = proto.Name()
		hdr.P = p
		hdr.States = proto.States()
		hdr.Leader = core.HasLeader(proto)
		hdr.N = n
		hdr.Workers = workers
		hdr.Deterministic = true
		if herr := st.sink.Emit(hdr); herr != nil {
			return herr
		}
	}

	var g *explore.Graph
	err = st.time("build", func() (string, error) {
		var berr error
		g, berr = explore.Build(proto, starts, explore.Options{MaxNodes: maxNodes, Workers: workers})
		if berr != nil {
			return "", berr
		}
		return fmt.Sprintf("%d configurations, %d transitions, %d workers, depth %d",
			g.Size(), g.EdgeCount(), g.Stats.Workers, g.Stats.Depth), nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("reachable state space: %d configurations, %d transitions (depth %d, %.0f nodes/s, intern hit rate %.3f)\n",
		g.Size(), g.EdgeCount(), g.Stats.Depth, g.Stats.NodesPerSec(), g.Stats.HitRate())
	if st.sink != nil {
		rec := obs.NewExploreRec(proto.Name(), n)
		rec.Workers = g.Stats.Workers
		rec.Nodes = g.Size()
		rec.Edges = g.EdgeCount()
		rec.Depth = g.Stats.Depth
		rec.InternHits = g.Stats.InternHits
		rec.InternMisses = g.Stats.InternMisses
		rec.InternHitRate = g.Stats.HitRate()
		rec.ShardMin, rec.ShardMax = g.Size(), g.Size() // one intern map
		rec.WallNS = g.Stats.WallNS
		rec.NodesPerSec = g.Stats.NodesPerSec()
		if jerr := st.sink.Emit(rec); jerr != nil {
			return jerr
		}
	}

	st.time("check-global", func() (string, error) {
		gv := g.CheckGlobal(explore.Naming)
		fmt.Printf("global fairness: %s\n", gv)
		return fmt.Sprintf("ok=%v", gv.OK), nil
	})

	st.time("check-weak", func() (string, error) {
		wv := g.CheckWeak(explore.Naming)
		fmt.Printf("weak fairness:   %s\n", wv)
		if !wv.OK {
			lasso, lerr := g.ExtractLasso(wv.BadSCC)
			if lerr != nil {
				fmt.Printf("lasso extraction failed: %v\n", lerr)
			} else {
				fmt.Printf("counterexample %s\n", lasso)
				fmt.Printf("  prefix: %v\n", lasso.Prefix)
				fmt.Printf("  cycle:  %v\n", lasso.Cycle)
			}
		}
		return fmt.Sprintf("ok=%v", wv.OK), nil
	})

	if exact {
		st.time("exact", func() (string, error) {
			chain, merr := markov.New(g)
			if merr != nil {
				fmt.Printf("exact analysis unavailable: %v\n", merr)
				return fmt.Sprintf("unavailable: %v", merr), nil
			}
			worst := chain.MaxExpected()
			fmt.Printf("exact E[interactions] worst-case start: %.3f\n", worst)
			zero := core.NewConfig(n, 0)
			if lp, ok := proto.(core.LeaderProtocol); ok {
				zero.Leader = lp.InitLeader()
			}
			if e, zerr := chain.ExpectedSteps(zero); zerr == nil {
				fmt.Printf("exact E[interactions] from all-zero start: %.3f\n", e)
			}
			return fmt.Sprintf("worst=%.3f", worst), nil
		})
	}

	if metrics {
		fmt.Println()
		st.dump(os.Stdout)
	}
	if st.sink != nil {
		return st.sink.Err()
	}
	return err
}

const maxStarts = 1 << 20 // the cap on the q^n configurations buildStarts enumerates

// buildStarts enumerates every mobile configuration; leader protocols
// get the initialized leader, or — with allLeaders, for Protocol 2 —
// every leader state in the declared domain.
func buildStarts(proto core.Protocol, n int, allLeaders bool) ([]*core.Config, error) {
	q := proto.States()
	total := 1
	for i := 0; i < n; i++ {
		// total <= maxStarts here, so the product cannot overflow.
		if total *= q; total > maxStarts {
			return nil, fmt.Errorf("start set of %d^%d configurations too large (the cap is %d)", q, n, maxStarts)
		}
	}
	var leaders []core.LeaderState
	switch lp := proto.(type) {
	case *naming.SelfStab:
		if allLeaders {
			for nn := 0; nn <= lp.P()+1; nn++ {
				for k := 0; k <= seq.Len(lp.P())+1; k++ {
					leaders = append(leaders, naming.ResetBST{N: nn, K: k})
				}
			}
		} else {
			leaders = append(leaders, lp.InitLeader())
		}
	case core.LeaderProtocol:
		if allLeaders {
			return nil, fmt.Errorf("-allleaders is only supported for the selfstab protocol")
		}
		leaders = append(leaders, lp.InitLeader())
	default:
		leaders = append(leaders, nil)
	}

	return explore.AllConfigs(q, n, leaders...), nil
}
