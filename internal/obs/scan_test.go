package obs

import (
	"encoding/json"
	"testing"
)

// TestScanJournalFields reads the reduced fields of a journal as
// ReadJournal's typed records hold them, and skips every other record
// type.
func TestScanJournalFields(t *testing.T) {
	var got []ScanRec
	torn, err := ScanJournal(journalBytes(t), func(r *ScanRec) error {
		got = append(got, *r)
		return nil
	})
	if torn || err != nil {
		t.Fatalf("ScanJournal = torn %v, err %v", torn, err)
	}
	want := make([]ScanRec, 5)
	want[0].Type, want[0].Header.Seed = "header", 42
	want[1].Type, want[1].Summary.Trial, want[1].Summary.Converged, want[1].Summary.Steps = "summary", 0, true, 123
	want[2].Type, want[2].Fault.Trial, want[2].Fault.Step, want[2].Fault.Kind, want[2].Fault.Trigger = "fault", 1, 50, "corrupt", "step"
	want[3].Type, want[3].Summary.Trial, want[3].Summary.Steps = "summary", 1, 999
	want[4].Type, want[4].Batch.Trials, want[4].Batch.Converged = "batch_summary", 2, 1
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestScanJournalTears: a line tears the journal when it is not an
// object with a non-empty string type or when a field ScanRec holds
// does not decode; a mistyped field it does not hold leaves the line
// intact.
func TestScanJournalTears(t *testing.T) {
	full := journalBytes(t)
	for _, c := range []struct {
		line string
		torn bool
	}{
		{`{"v":1,"type":"summary","steps":"NaN"}`, true},
		{`{"v":1,"type":"summary","steps":-1}`, true},
		{`{"v":1,"type":"fault","kind":7}`, true},
		{`{"v":1,"type":"summary","validNaming":"yes"}`, true},
		{`{"v":1}`, true},
		{`{"v":1,"type":""}`, true},
		{`["type","summary"]`, true},
		{`{"v":1,"type":"summary","steps":4,"rules":"none","nonNull":-2}`, false},
		{`{"v":"one","type":"progress","step":"x"}`, false},
		{`{"v":1,"type":"job","id":"j1"}`, false},
	} {
		data := append(append([]byte{}, full...), c.line+"\n"...)
		torn, err := ScanJournal(data, func(*ScanRec) error { return nil })
		if torn != c.torn || err != nil {
			t.Errorf("%s: torn %v, err %v; want torn %v", c.line, torn, err, c.torn)
		}
	}
}

// TestNamingDecodesAsBoolPointer: Naming decodes every JSON value as a
// *bool field does, null and repeated keys included.
func TestNamingDecodesAsBoolPointer(t *testing.T) {
	for _, obj := range []string{
		`{}`, `{"v":true}`, `{"v":false}`, `{"v":null}`, `{"v":true,"v":null}`, `{"v":null,"v":false}`,
		`{"v":1}`, `{"v":"true"}`, `{"v":[true]}`, `{"v":{}}`,
	} {
		var ptr struct {
			V *bool `json:"v"`
		}
		var n struct {
			V Naming `json:"v"`
		}
		perr, nerr := json.Unmarshal([]byte(obj), &ptr), json.Unmarshal([]byte(obj), &n)
		if (perr == nil) != (nerr == nil) {
			t.Errorf("%s: *bool err %v, Naming err %v", obj, perr, nerr)
			continue
		}
		want := NamingUnknown
		if ptr.V != nil {
			want = NamingInvalid
			if *ptr.V {
				want = NamingValid
			}
		}
		if perr == nil && n.V != want {
			t.Errorf("%s: Naming %d, want %d", obj, n.V, want)
		}
	}
}
