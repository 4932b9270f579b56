//go:build !race

package store

import (
	"encoding/json"
	"testing"
)

// TestWALJobAllocs pins what one job's Admit, AppendResults (two
// spills) and Finalize allocate on a WAL: opening, naming and closing
// the job's result log and indexing the job. Framing the three records
// and writing the spills allocate nothing (the race detector's
// instrumentation allocates, hence the build tag).
func TestWALJobAllocs(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	spec := json.RawMessage(`{"kind":"batch","protocol":"asym","p":4,"n":4,"seed":7,"trials":4}`)
	sum := json.RawMessage(`{"trials":4,"ok":true}`)
	spill := lines(`{"v":1,"type":"header"}`, `{"v":1,"type":"summary","trial":0}`)
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = jobName(i)
	}
	i := 0
	got := testing.AllocsPerRun(len(ids)-1, func() {
		id := ids[i]
		i++
		if err := w.Admit(id, spec, false); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := w.AppendResults(id, spill); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finalize(id, Final{State: StateDone, Summary: sum, ResultLines: 4}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per job", got)
	if want := 5.0; got != want {
		t.Errorf("one job allocates %v times, want %v", got, want)
	}
}

// jobName returns the server's ID of job i+1.
func jobName(i int) string {
	b := []byte("j000000")
	for k := len(b) - 1; i > 0; k-- {
		b[k] = byte('0' + i%10)
		i /= 10
	}
	return string(b)
}
