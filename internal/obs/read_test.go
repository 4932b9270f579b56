package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// journalBytes builds a small, representative journal: header, one
// progress+summary trial, a fault record and the batch summary.
func journalBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJournalSink(&buf)
	hdr := NewHeader("test")
	hdr.Protocol = "selfstab"
	hdr.Seed = 42
	hdr.Trials = 2
	recs := []any{
		hdr,
		Progress{V: Version, Type: "progress", Trial: 0, Step: 100},
		Summary{V: Version, Type: "summary", Trial: 0, Converged: true, Steps: 123},
		NewFaultRec(1, 50, "corrupt", 2, "step"),
		Summary{V: Version, Type: "summary", Trial: 1, Converged: false, Steps: 999},
		BatchSummaryRec{V: Version, Type: "batch_summary", Trials: 2, Converged: 1},
	}
	for _, r := range recs {
		if err := sink.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReadJournalDispatch(t *testing.T) {
	data := journalBytes(t)
	var types []string
	var steps []uint64
	torn, err := ReadJournal(bytes.NewReader(data), func(rec Rec) error {
		types = append(types, rec.Type)
		switch rec.Type {
		case "header":
			if rec.Header == nil || rec.Header.Seed != 42 {
				t.Errorf("header not decoded: %+v", rec.Header)
			}
		case "summary":
			if rec.Summary == nil {
				t.Fatal("summary not decoded")
			}
			steps = append(steps, rec.Summary.Steps)
		case "fault":
			if rec.Fault == nil || rec.Fault.Kind != "corrupt" || rec.Fault.Arg != 2 {
				t.Errorf("fault not decoded: %+v", rec.Fault)
			}
		case "batch_summary":
			if rec.Batch == nil || rec.Batch.Trials != 2 {
				t.Errorf("batch summary not decoded: %+v", rec.Batch)
			}
		}
		if len(rec.Raw) == 0 {
			t.Error("record delivered without Raw bytes")
		}
		return nil
	})
	if torn || err != nil {
		t.Fatalf("ReadJournal = torn %v, err %v", torn, err)
	}
	want := []string{"header", "progress", "summary", "fault", "summary", "batch_summary"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("types = %v, want %v", types, want)
	}
	if len(steps) != 2 || steps[0] != 123 || steps[1] != 999 {
		t.Errorf("summary steps = %v", steps)
	}
}

func TestReadJournalTornTail(t *testing.T) {
	full := journalBytes(t)
	cases := []struct {
		name string
		data []byte
		want int // records delivered
	}{
		{"unterminated tail", append(append([]byte{}, full...), []byte(`{"v":1,"type":"summ`)...), 6},
		{"mid-line cut", full[:len(full)-25], 5},
		{"garbage line", append(append([]byte{}, full[:len(full)-1]...), []byte("\nnot json\n")...), 6},
		{"typed field mismatch", append(append([]byte{}, full...), []byte(`{"v":1,"type":"summary","steps":"NaN"}`+"\n")...), 6},
		{"typeless object", append(append([]byte{}, full...), []byte(`{"v":1}`+"\n")...), 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got int
			torn, err := ReadJournal(bytes.NewReader(c.data), func(Rec) error { got++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if !torn {
				t.Error("torn = false, want true")
			}
			if got != c.want {
				t.Errorf("delivered %d records, want %d", got, c.want)
			}
		})
	}
}

func TestReadJournalUnknownTypeRawOnly(t *testing.T) {
	data := []byte(`{"v":1,"type":"job","id":"j1","state":"done"}` + "\n")
	var got Rec
	torn, err := ReadJournal(bytes.NewReader(data), func(rec Rec) error { got = rec; return nil })
	if torn || err != nil {
		t.Fatalf("ReadJournal = torn %v, err %v", torn, err)
	}
	if got.Type != "job" || got.Header != nil || got.Summary != nil {
		t.Errorf("unknown type should deliver Raw only: %+v", got)
	}
	if !bytes.Contains(got.Raw, []byte(`"j1"`)) {
		t.Errorf("Raw = %s", got.Raw)
	}
}

func TestReadJournalFnError(t *testing.T) {
	boom := errors.New("boom")
	torn, err := ReadJournal(bytes.NewReader(journalBytes(t)), func(Rec) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if torn {
		t.Error("torn and err both set")
	}
}

func TestReadJournalEmpty(t *testing.T) {
	torn, err := ReadJournal(bytes.NewReader(nil), func(Rec) error {
		t.Fatal("unexpected record")
		return nil
	})
	if torn || err != nil {
		t.Fatalf("ReadJournal(empty) = torn %v, err %v", torn, err)
	}
}

// refDecodeRec is the reference decoder: a full json.Unmarshal probe
// for "type", then a second decode into the typed record. decodeRec
// must agree with it on every line.
func refDecodeRec(line []byte) (Rec, bool) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Type == "" {
		return Rec{}, false
	}
	rec := Rec{Type: probe.Type, Raw: line}
	var dst any
	switch probe.Type {
	case "header":
		rec.Header = &Header{}
		dst = rec.Header
	case "progress":
		rec.Progress = &Progress{}
		dst = rec.Progress
	case "summary":
		rec.Summary = &Summary{}
		dst = rec.Summary
	case "batch_summary":
		rec.Batch = &BatchSummaryRec{}
		dst = rec.Batch
	case "census":
		rec.Census = &CensusRec{}
		dst = rec.Census
	case "fault":
		rec.Fault = &FaultRec{}
		dst = rec.Fault
	case "experiment":
		rec.Experiment = &ExperimentRec{}
		dst = rec.Experiment
	case "explore":
		rec.Explore = &ExploreRec{}
		dst = rec.Explore
	case "stage":
		rec.Stage = &StageRec{}
		dst = rec.Stage
	case "lease":
		rec.Lease = &LeaseRec{}
		dst = rec.Lease
	case "span":
		rec.Span = &SpanRec{}
		dst = rec.Span
	default:
		return rec, true
	}
	if err := json.Unmarshal(line, dst); err != nil {
		return Rec{}, false
	}
	return rec, true
}

// refReadJournal is ReadJournal's line loop over refDecodeRec,
// collecting the delivered records.
func refReadJournal(data []byte) (recs []Rec, torn bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return recs, len(bytes.TrimSpace(line)) > 0
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		rec, ok := refDecodeRec(trimmed)
		if !ok {
			return recs, true
		}
		recs = append(recs, rec)
	}
}

// FuzzJournalRead pins the decoder's robustness contract: arbitrary
// bytes never panic, torn and err are never both set, and every
// delivered record carries a non-empty type with its Raw bytes. It
// also holds the single-decode read to the reference decoder: the
// same records and the same torn verdict on every input.
func FuzzJournalRead(f *testing.F) {
	valid := journalBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add([]byte(`{"v":1,"type":"summary","trial":3,"steps":7}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"mystery","x":[1,2,3]}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})
	// Lines the prefix read must hand to the probe: duplicate and
	// case-variant type keys, an escaped name, a truncated record, an
	// unknown type and a non-string duplicate.
	f.Add([]byte(`{"v":1,"type":"summary","type":"header","seed":3}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"summary","Type":"progress","step":5}` + "\n"))
	f.Add([]byte(`{"v":1,"Type":"summary","steps":4}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"summ\u0061ry","steps":4}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"summary"`))
	f.Add([]byte(`{"v":1,"type":"summary"` + "\n"))
	f.Add([]byte(`{"v":1,"type":"job","id":"j1","state":"done"}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"summary","type":5}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Rec
		torn, err := ReadJournal(bytes.NewReader(data), func(rec Rec) error {
			if rec.Type == "" {
				t.Error("record with empty type delivered")
			}
			if len(rec.Raw) == 0 {
				t.Error("record without Raw delivered")
			}
			got = append(got, rec)
			return nil
		})
		if torn && err != nil {
			t.Errorf("torn and err both set: %v", err)
		}
		want, wantTorn := refReadJournal(data)
		if torn != wantTorn {
			t.Errorf("torn = %v, reference %v", torn, wantTorn)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("records differ from the reference:\n got %+v\nwant %+v", got, want)
		}
	})
}
