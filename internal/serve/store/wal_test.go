package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// lines builds newline-terminated NDJSON result lines.
func lines(ss ...string) [][]byte {
	var out [][]byte
	for _, s := range ss {
		out = append(out, []byte(s+"\n"))
	}
	return out
}

// TestWALRoundTrip pins the durability contract: admissions, state
// transitions, result logs and terminal outcomes written before Close
// replay identically after reopen, in admission order.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec1 := json.RawMessage(`{"kind":"sim","seed":7}`)
	spec2 := json.RawMessage(`{"kind":"batch","seed":9}`)
	if err := w.Admit("j000001", spec1, true); err != nil {
		t.Fatal(err)
	}
	if err := w.Admit("j000002", spec2, false); err != nil {
		t.Fatal(err)
	}
	if err := w.SetState("j000001", StateRunning); err != nil {
		t.Fatal(err)
	}
	res := lines(`{"type":"header"}`, `{"type":"result"}`, `{"type":"job","state":"done"}`)
	if err := w.AppendResults("j000001", res); err != nil {
		t.Fatal(err)
	}
	fin := Final{State: StateDone, Summary: json.RawMessage(`{"ok":true}`), WallNS: 42, ResultLines: 3}
	if err := w.Finalize("j000001", fin); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snaps, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("replayed %d snapshots, want 2", len(snaps))
	}
	s1, s2 := snaps[0], snaps[1]
	if s1.ID != "j000001" || s1.State != StateDone || !s1.SeedDerived ||
		s1.WallNS != 42 || s1.ResultLines != 3 ||
		!bytes.Equal(s1.Spec, spec1) || !bytes.Equal(s1.Summary, []byte(`{"ok":true}`)) {
		t.Fatalf("snapshot 1: %+v", s1)
	}
	if s2.ID != "j000002" || s2.State != StateQueued || s2.SeedDerived || !bytes.Equal(s2.Spec, spec2) {
		t.Fatalf("snapshot 2: %+v", s2)
	}
	got, err := w2.ReadResults("j000001", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !bytes.Equal(got[i], res[i]) {
			t.Fatalf("result line %d: %q != %q", i, got[i], res[i])
		}
	}
	if sub, err := w2.ReadResults("j000001", 1, 2); err != nil || len(sub) != 1 || !bytes.Equal(sub[0], res[1]) {
		t.Fatalf("subrange read: %q err %v", sub, err)
	}
	if _, err := w2.ReadResults("j000001", 0, 5); err == nil {
		t.Fatal("short log read did not error")
	}
}

// TestLookup pins the indexed read against the fold, on both stores:
// each job's Lookup equals its Replay snapshot, while the store is
// written and after a WAL reopen; a state record after a terminal one
// changes neither, as terminal states are sticky; and an ID never
// admitted is an error. A WAL's second Replay folds the log again.
func TestLookup(t *testing.T) {
	write := func(t *testing.T, js interface {
		Admit(string, json.RawMessage, bool) error
		SetState(string, string) error
		Finalize(string, Final) error
	}) {
		for _, err := range []error{
			js.Admit("j000001", json.RawMessage(`{"kind":"sim","seed":7}`), true),
			js.Admit("j000002", json.RawMessage(`{"kind":"batch","seed":9}`), false),
			js.SetState("j000001", StateRunning),
			js.Finalize("j000001", Final{State: StateDone, Summary: json.RawMessage(`{"ok":true}`), WallNS: 42, ResultLines: 3}),
			js.SetState("j000001", StateQueued), // after the terminal record: ignored
			js.SetState("j000002", StateQueued),
			js.SetState("j000003", StateRunning), // never admitted: ignored
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, js interface {
		Replay() ([]Snapshot, error)
		Lookup(string) (Snapshot, error)
	}) {
		t.Helper()
		snaps, err := js.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 2 || snaps[0].State != StateDone || snaps[0].WallNS != 42 || snaps[1].State != StateQueued {
			t.Fatalf("replayed %+v", snaps)
		}
		for _, want := range snaps {
			got, err := js.Lookup(want.ID)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%s) = %+v, %v; want %+v", want.ID, got, err, want)
			}
		}
		if _, err := js.Lookup("j000003"); err == nil {
			t.Fatal("Lookup of a job never admitted: nil error")
		}
	}

	t.Run("memory", func(t *testing.T) {
		m := NewMemory()
		write(t, m)
		check(t, m)
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		write(t, w)
		check(t, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		check(t, w2) // the open-time fold
		check(t, w2) // the log folded again
	})
}

// TestWALTornRecordTruncated pins crash recovery: garbage at the tail
// of the log — a torn final record, with or without its newline — is
// truncated on open, everything before it replays, and the store is
// appendable afterwards.
func TestWALTornRecordTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"no-newline", `0badc0de {"v":1,"seq"`},
		{"bad-crc", "deadbeef {\"v\":1,\"seq\":99,\"t\":\"state\",\"id\":\"j000002\",\"state\":\"done\"}\n"},
		{"not-json", "00000000 garbage\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Admit("j000001", json.RawMessage(`{"kind":"sim"}`), false); err != nil {
				t.Fatal(err)
			}
			if err := w.Finalize("j000001", Final{State: StateDone}); err != nil {
				t.Fatal(err)
			}
			if err := w.Admit("j000002", json.RawMessage(`{"kind":"sim"}`), false); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, walFile)
			goodSize := int64(len(mustRead(t, path)))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w2, err := OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := w2.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) != 2 || snaps[0].State != StateDone || snaps[1].State != StateQueued {
				t.Fatalf("post-truncation snapshots: %+v", snaps)
			}
			if got := int64(len(mustRead(t, path))); got != goodSize {
				t.Fatalf("wal size %d after truncation, want %d", got, goodSize)
			}
			// The reopened store appends cleanly past the truncation.
			if err := w2.Finalize("j000002", Final{State: StateCanceled, Error: "canceled"}); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			w3, err := OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer w3.Close()
			snaps, _ = w3.Replay()
			if len(snaps) != 2 || snaps[1].State != StateCanceled || snaps[1].Error != "canceled" {
				t.Fatalf("post-append snapshots: %+v", snaps)
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALResetResults pins the re-queue path: resetting a job's result
// log removes it, and a fresh append starts from line zero.
func TestWALResetResults(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendResults("j000001", lines(`{"partial":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.ResetResults("j000001"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadResults("j000001", 0, 1); err == nil {
		t.Fatal("read after reset did not error")
	}
	if err := w.AppendResults("j000001", lines(`{"fresh":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadResults("j000001", 0, -1)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], []byte("{\"fresh\":1}\n")) {
		t.Fatalf("post-reset read: %q err %v", got, err)
	}
	// Resetting a job with no log is a no-op, not an error.
	if err := w.ResetResults("j999999"); err != nil {
		t.Fatal(err)
	}
}

// TestWALRejectsUnsafeIDs keeps job IDs inside the results directory.
func TestWALRejectsUnsafeIDs(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, id := range []string{"", "../evil", "a/b", `a\b`, "a..b"} {
		if err := w.Admit(id, nil, false); err == nil {
			t.Errorf("Admit(%q) accepted", id)
		}
		if err := w.AppendResults(id, lines("{}")); err == nil {
			t.Errorf("AppendResults(%q) accepted", id)
		}
	}
}

// TestStoreParity runs one job-lifecycle script against both
// implementations and demands identical Replay and ReadResults views,
// so the serving layer can treat them interchangeably.
func TestStoreParity(t *testing.T) {
	run := func(s interface {
		Admit(string, json.RawMessage, bool) error
		SetState(string, string) error
		Finalize(string, Final) error
		AppendResults(string, [][]byte) error
		ResetResults(string) error
		ReadResults(string, int, int) ([][]byte, error)
		Replay() ([]Snapshot, error)
	}) ([]Snapshot, [][]byte) {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(s.Admit("j000001", json.RawMessage(`{"kind":"sim","seed":1}`), false))
		must(s.SetState("j000001", StateRunning))
		must(s.AppendResults("j000001", lines(`{"partial":1}`)))
		must(s.ResetResults("j000001"))
		must(s.AppendResults("j000001", lines(`{"a":1}`, `{"b":2}`)))
		must(s.Finalize("j000001", Final{State: StateDone, Summary: json.RawMessage(`{"ok":true}`), ResultLines: 2}))
		// Terminal states are sticky in both implementations.
		must(s.SetState("j000001", StateRunning))
		must(s.Finalize("j000001", Final{State: StateCanceled}))
		must(s.Admit("j000002", json.RawMessage(`{"kind":"sim","seed":2}`), true))
		snaps, err := s.Replay()
		must(err)
		res, err := s.ReadResults("j000001", 0, -1)
		must(err)
		return snaps, res
	}

	memSnaps, memRes := run(NewMemory())
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The WAL's Replay reflects open time (the only time the serving
	// layer calls it), so its live return here is empty; the folded
	// view is compared after a reopen below.
	_, walRes := run(w)
	if len(memSnaps) != 2 || memSnaps[0].State != StateDone || memSnaps[1].State != StateQueued {
		t.Fatalf("memory snapshots: %+v", memSnaps)
	}
	if len(memRes) != len(walRes) {
		t.Fatalf("result lines: memory %d, wal %d", len(memRes), len(walRes))
	}
	for i := range memRes {
		if !bytes.Equal(memRes[i], walRes[i]) {
			t.Fatalf("result line %d: %q != %q", i, memRes[i], walRes[i])
		}
	}
	// Reopen the WAL: its folded view must match Memory's live view.
	dir := w.dir
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	reSnaps, err := w2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(reSnaps) != len(memSnaps) {
		t.Fatalf("snapshot count: wal %d, memory %d", len(reSnaps), len(memSnaps))
	}
	for i := range memSnaps {
		m, ww := memSnaps[i], reSnaps[i]
		if m.ID != ww.ID || m.State != ww.State || m.Error != ww.Error ||
			m.SeedDerived != ww.SeedDerived || m.ResultLines != ww.ResultLines ||
			!bytes.Equal(m.Spec, ww.Spec) || !bytes.Equal(m.Summary, ww.Summary) {
			t.Fatalf("snapshot %d differs:\nmemory: %+v\nwal:    %+v", i, m, ww)
		}
	}
}

// TestFoldTerminalSticky pins the replay invariant that makes the
// cancel/pickup crash window safe: once a terminal state record lands,
// later state records cannot resurrect the job.
func TestFoldTerminalSticky(t *testing.T) {
	recs := []Rec{
		{T: RecAdmit, ID: "j1", Spec: json.RawMessage(`{}`)},
		{T: RecState, ID: "j1", State: StateCanceled, Error: "canceled while queued"},
		{T: RecState, ID: "j1", State: StateRunning},
		{T: RecState, ID: "j1", State: StateDone},
		{T: RecAdmit, ID: "j1"},                         // duplicate admission is ignored
		{T: RecState, ID: "ghost", State: StateRunning}, // unknown ID is ignored
	}
	snaps := Fold(recs)
	if len(snaps) != 1 {
		t.Fatalf("folded %d snapshots, want 1", len(snaps))
	}
	if snaps[0].State != StateCanceled || snaps[0].Error != "canceled while queued" {
		t.Fatalf("terminal state not sticky: %+v", snaps[0])
	}
}

// TestFoldIgnoresLeaseRecords pins that a log written before completed
// leases became shard jobs still opens whole: its lease record decodes
// (the log is not cut there as torn) and folds to nothing, so the job
// replays as if the record were not there and its leases run again.
func TestFoldIgnoresLeaseRecords(t *testing.T) {
	admit := Rec{V: Version, Seq: 1, T: RecAdmit, ID: "j000001", Spec: json.RawMessage(`{"kind":"batch"}`)}
	line, err := EncodeRec(admit)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := append(append(line, legacyLease()...), '\n')
	if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, err := w.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if want := Fold([]Rec{admit}); !reflect.DeepEqual(got, want) {
		t.Fatalf("old log replays to %+v, want %+v", got, want)
	}
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("old log cut at its lease record: %v, %v", fi, err)
	}
}

// TestRecCodecRoundTrip pins the CRC framing.
func TestRecCodecRoundTrip(t *testing.T) {
	in := Rec{V: 1, Seq: 12, T: RecState, ID: "j000007", State: StateDone,
		Summary: json.RawMessage(`{"ok":true}`), WallNS: 99, ResultLines: 4}
	line, err := EncodeRec(in)
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded record not newline-terminated")
	}
	out, err := DecodeRec(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.T != in.T || out.ID != in.ID || out.State != in.State ||
		out.WallNS != in.WallNS || out.ResultLines != in.ResultLines {
		t.Fatalf("round-trip: %+v != %+v", out, in)
	}
	// One flipped byte in the body fails the checksum.
	bad := append([]byte(nil), line[:len(line)-1]...)
	bad[12] ^= 1
	if _, err := DecodeRec(bad); err == nil {
		t.Fatal("corrupted record decoded")
	}
}

// TestWALFrameMatchesEncodeRec: the WAL's reused-buffer framing writes
// EncodeRec's bytes for every record FuzzRecDecode's seeds decode to,
// and for a record whose strings need escaping, one after another on
// one WAL, so wal.jsonl stays byte-identical.
func TestWALFrameMatchesEncodeRec(t *testing.T) {
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := []Rec{{V: Version, Seq: 9, T: RecState, ID: "j000003", State: StateFailed,
		Error: "<a & b>   \xff\"\\\n", Summary: json.RawMessage(` { "x" : "<&>" } `)}}
	for _, line := range recSeeds(t) {
		if rec, err := DecodeRec(line); err == nil {
			recs = append(recs, rec)
		}
	}
	if len(recs) < 5 {
		t.Fatalf("only %d records to frame", len(recs))
	}
	for _, rec := range recs {
		want, err := EncodeRec(rec)
		if err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		got, err := w.frame(rec)
		w.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("framed\n%s\nEncodeRec\n%s", got, want)
		}
	}
}
