package store

import (
	"encoding/json"
	"fmt"
	"testing"
)

// BenchmarkWALAppend measures one lifecycle record append (CRC frame +
// write, no fsync) — the cost the WAL adds to every admission and
// state transition on the serving path.
func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	spec := json.RawMessage(`{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":7,"budget":50000}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Admit(fmt.Sprintf("j%06d", i+1), spec, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALFinalize measures the fsync-bearing terminal write — the
// WAL's only synchronous disk barrier, paid once per job.
func BenchmarkWALFinalize(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	sum := json.RawMessage(`{"ok":true}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		if err := w.Admit(id, nil, false); err != nil {
			b.Fatal(err)
		}
		if err := w.Finalize(id, Final{State: StateDone, Summary: sum, ResultLines: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALJobLifecycle measures one job's whole store lifecycle
// on a WAL in TMPDIR: Admit, two result spills, the fsync-bearing
// Finalize and reading the finished log back with ReadResults.
func BenchmarkWALJobLifecycle(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	spec := json.RawMessage(`{"kind":"batch","protocol":"asym","p":4,"n":4,"seed":7,"trials":4}`)
	sum := json.RawMessage(`{"trials":4,"ok":true}`)
	spill := lines(`{"v":1,"type":"header","tool":"ppserved","seed":7}`,
		`{"v":1,"type":"summary","trial":0,"converged":true,"steps":84}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("j%06d", i+1)
		if err := w.Admit(id, spec, false); err != nil {
			b.Fatal(err)
		}
		for range 2 {
			if err := w.AppendResults(id, spill); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Finalize(id, Final{State: StateDone, Summary: sum, ResultLines: 4}); err != nil {
			b.Fatal(err)
		}
		if got, err := w.ReadResults(id, 0, -1); err != nil || len(got) != 4 {
			b.Fatalf("read back %d lines, %v", len(got), err)
		}
	}
}

// BenchmarkWALReplay measures boot-time recovery cost as the log
// grows: open (read + decode + truncate check + fold) over a store
// holding jobs complete lifecycles.
func BenchmarkWALReplay(b *testing.B) {
	for _, jobs := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			dir := b.TempDir()
			w, err := OpenWAL(dir)
			if err != nil {
				b.Fatal(err)
			}
			spec := json.RawMessage(`{"kind":"sim","protocol":"asym","p":4,"n":4,"seed":7,"budget":50000}`)
			for i := 0; i < jobs; i++ {
				id := fmt.Sprintf("j%06d", i+1)
				if err := w.Admit(id, spec, false); err != nil {
					b.Fatal(err)
				}
				if err := w.SetState(id, StateRunning); err != nil {
					b.Fatal(err)
				}
				if err := w.Finalize(id, Final{State: StateDone,
					Summary: json.RawMessage(`{"ok":true}`), ResultLines: 3}); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := OpenWAL(dir)
				if err != nil {
					b.Fatal(err)
				}
				snaps, err := w.Replay()
				if err != nil {
					b.Fatal(err)
				}
				if len(snaps) != jobs {
					b.Fatalf("replayed %d, want %d", len(snaps), jobs)
				}
				w.Close()
			}
		})
	}
}
