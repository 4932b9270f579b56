package store

import (
	"errors"
	"strings"
	"testing"
)

// errWriter fails every write, modeling a dead disk under the WAL.
type errWriter struct{ err error }

func (e errWriter) Write(p []byte) (int, error) { return 0, e.err }

// shortWriter accepts only half of each write and reports no error —
// the silent-truncation failure appendLocked must catch itself.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

func openTestWAL(t *testing.T) *WAL {
	t.Helper()
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestWALAppendError pins that a failing WAL write surfaces as a
// structured error from every lifecycle append — never a silent loss.
func TestWALAppendError(t *testing.T) {
	w := openTestWAL(t)
	boom := errors.New("input/output error")
	w.out = errWriter{err: boom}
	for name, call := range map[string]func() error{
		"admit":    func() error { return w.Admit("j1", []byte(`{}`), false) },
		"setstate": func() error { return w.SetState("j1", StateRunning) },
		"finalize": func() error { return w.Finalize("j1", Final{State: StateDone}) },
	} {
		err := call()
		if err == nil {
			t.Fatalf("%s: nil error with a failing writer", name)
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "input/output error") {
			t.Fatalf("%s: error %v does not carry the write failure", name, err)
		}
	}
}

// TestWALShortWrite pins the short-write check: a writer that accepts
// part of a record without erroring is still an append failure.
func TestWALShortWrite(t *testing.T) {
	w := openTestWAL(t)
	w.out = shortWriter{}
	err := w.Admit("j1", []byte(`{}`), false)
	if err == nil || !strings.Contains(err.Error(), "short write") {
		t.Fatalf("short write surfaced as %v", err)
	}
}

// TestWALSyncError pins that a failing fsync fails Finalize — the one
// append whose durability the store promises.
func TestWALSyncError(t *testing.T) {
	w := openTestWAL(t)
	w.sync = func() error { return errors.New("fsync: no space left on device") }
	if err := w.Admit("j1", []byte(`{}`), false); err != nil {
		t.Fatal(err)
	}
	err := w.Finalize("j1", Final{State: StateDone})
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("failing fsync surfaced as %v", err)
	}
}
