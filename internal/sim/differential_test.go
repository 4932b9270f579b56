package sim_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"popnaming/internal/core"
	"popnaming/internal/experiments"
	"popnaming/internal/obs"
	"popnaming/internal/sched"
	"popnaming/internal/sim"
)

// diffCase instantiates one registry protocol at a size where every
// protocol is well-defined (counting needs N < P, ssle needs N = P).
func diffCase(t *testing.T, key string) (core.Protocol, int) {
	t.Helper()
	spec, err := experiments.Lookup(key)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", key, err)
	}
	p, n := 12, 10
	if key == "ssle" {
		n = 12
	}
	return spec.New(p), n
}

func diffStart(pr core.Protocol, n int, seed int64) *core.Config {
	if ap, ok := pr.(core.ArbitraryInitProtocol); ok {
		return sim.ArbitraryConfig(ap, n, rand.New(rand.NewSource(seed)))
	}
	return sim.UniformConfig(pr, n)
}

func sameConfig(a, b *core.Config) bool {
	if !reflect.DeepEqual(a.Mobile, b.Mobile) {
		return false
	}
	if (a.Leader == nil) != (b.Leader == nil) {
		return false
	}
	return a.Leader == nil || string(a.Leader.AppendKey(nil)) == string(b.Leader.AppendKey(nil))
}

// TestCompiledMatchesInterpreted drives a compiled and an interpreted
// runner of every registered protocol from identical seeds and demands
// bit-identical configurations after every single interaction, plus
// agreement between the incremental silence test and the exhaustive
// O(n²) scan.
func TestCompiledMatchesInterpreted(t *testing.T) {
	const seed, steps = 1701, 3000
	for _, key := range experiments.RegistryKeys() {
		key := key
		t.Run(key, func(t *testing.T) {
			pr, n := diffCase(t, key)
			withLeader := core.HasLeader(pr)

			comp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
			interp.Interpret = true
			if !comp.Compiled() {
				t.Fatalf("protocol %q did not compile", key)
			}
			if interp.Compiled() {
				t.Fatal("Interpret did not disable the compiled engine")
			}

			for s := 0; s < steps; s++ {
				if comp.Step() != interp.Step() {
					t.Fatalf("step %d: null/non-null disagreement", s)
				}
				if !sameConfig(comp.Cfg, interp.Cfg) {
					t.Fatalf("step %d: configurations diverged:\n  compiled    %v\n  interpreted %v", s, comp.Cfg, interp.Cfg)
				}
				if s%157 == 0 {
					exhaustive := core.Silent(pr, interp.Cfg)
					if comp.Silent() != exhaustive || interp.Silent() != exhaustive {
						t.Fatalf("step %d: silence tests disagree (census %v, interp %v, scan %v)",
							s, comp.Silent(), interp.Silent(), exhaustive)
					}
				}
			}
		})
	}
}

// TestCompiledRunMatchesInterpretedRun checks that full executions —
// including the fused scheduler/table/census loop and its convergence
// cutoff — return identical Results from identical seeds, bare and
// observed. An attached observer keeps the compiled runner on the fused
// loop, and its journal — progress records at an odd period, rule
// counts, quiet streaks, pair coverage and fairness gap — must equal
// the interpreted runner's, modulo wall-clock fields.
func TestCompiledRunMatchesInterpretedRun(t *testing.T) {
	const seed, budget = 2718, 400000
	for _, key := range experiments.RegistryKeys() {
		t.Run(key, func(t *testing.T) {
			pr, n := diffCase(t, key)
			withLeader := core.HasLeader(pr)
			run := func(interpret, observed bool) (sim.Result, []byte) {
				r := sim.NewRunner(pr, sched.NewRandom(n, withLeader, seed), diffStart(pr, n, seed))
				r.Interpret = interpret
				var buf bytes.Buffer
				if observed {
					r.Obs = obs.NewObserver(n, withLeader, obs.ObserverOptions{Sink: obs.NewJournalSink(&buf), ProgressEvery: 97})
				}
				return r.Run(budget), obs.Canonical(buf.Bytes())
			}
			for _, observed := range []bool{false, true} {
				got, gotJournal := run(false, observed)
				want, wantJournal := run(true, observed)
				if got.Converged != want.Converged || got.Steps != want.Steps || got.NonNull != want.NonNull {
					t.Fatalf("observed=%v: results diverged:\n  compiled    %v\n  interpreted %v", observed, got, want)
				}
				if !sameConfig(got.Final, want.Final) {
					t.Fatalf("observed=%v: final configurations diverged:\n  compiled    %v\n  interpreted %v", observed, got.Final, want.Final)
				}
				if line, a, b := firstDiff(gotJournal, wantJournal); line > 0 {
					t.Fatalf("journals diverge at line %d:\n  compiled    %s\n  interpreted %s", line, a, b)
				}
			}
		})
	}
}

// firstDiff returns the first line (1-based) at which two journals
// differ, with both versions of it, or 0 when they are equal.
func firstDiff(a, b []byte) (int, []byte, []byte) {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range max(len(la), len(lb)) {
		var x, y []byte
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if !bytes.Equal(x, y) {
			return i + 1, x, y
		}
	}
	return 0, nil, nil
}
