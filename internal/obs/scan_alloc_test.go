//go:build !race

package obs

import (
	"bytes"
	"testing"
)

// The race detector drops sync.Pool items at random, and json.Valid
// takes its scanner from a pool, so allocations are counted only in
// builds without it.

// TestScanJournalAllocs: a journal's lines cost no allocation, so ten
// copies of its records scan with the allocations of one.
func TestScanJournalAllocs(t *testing.T) {
	one := journalBytes(t)
	ten := bytes.Repeat(one, 10)
	scan := func(data []byte) func() {
		return func() {
			if _, err := ScanJournal(data, func(*ScanRec) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := testing.AllocsPerRun(20, scan(one)), testing.AllocsPerRun(20, scan(ten)); a != b {
		t.Errorf("one journal allocates %v times, ten copies %v", a, b)
	}
}
