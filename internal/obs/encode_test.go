package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"popnaming/internal/core"
)

// refRuleCounts is the RuleCounts the merge and sort replaced, kept as
// the reference for the rule list: a map from rule text to count, then
// sort.Slice by count, ties by text.
func refRuleCounts(o *Observer) []RuleCount {
	merged := make(map[string]uint64)
	for k, c := range o.rules {
		merged[k.String()] += c
	}
	for idx, c := range o.rulesDense {
		if c == 0 {
			continue
		}
		q := o.ruleTab.States()
		x2, y2 := o.ruleTab.At(idx)
		merged[RuleKey{X: core.State(idx / q), Y: core.State(idx % q), X2: x2, Y2: y2}.String()] += c
	}
	out := make([]RuleCount, 0, len(merged))
	for rule, c := range merged {
		out = append(out, RuleCount{Rule: rule, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// fuzzTable is a protocol whose every state pair is a non-null rule,
// (x,y) -> (x+1, y+2) mod q, so any pair the fuzzer picks fires.
func fuzzTable(q int) *core.Compiled {
	tab := core.NewRuleTable("fuzz", q, q)
	for x := range q {
		for y := range q {
			tab.Add(core.State(x), core.State(y), core.State((x+1)%q), core.State((y+2)%q))
		}
	}
	return core.MustCompile(tab)
}

// recordSink keeps the records it is sent.
type recordSink struct{ recs []any }

func (s *recordSink) Emit(rec any) error { s.recs = append(s.recs, rec); return nil }

// fuzzObserver drives an observer from data: each byte pair fires a
// rule, on the map path until CompileRules at the split byte and on the
// dense path after it, so a rule can be counted in both; a byte pair
// can also fire a leader rule, a mobile rule the table does not have,
// or null steps. Small alphabets make count ties common, and state
// numbers past 9 make rule text order differ from numeric order.
func fuzzObserver(data []byte, naming uint8, forced int64) (*Observer, *recordSink) {
	q := 12
	if len(data) > 0 {
		q = 2 + int(data[0])%14
	}
	tab := fuzzTable(q)
	sink := &recordSink{}
	leader := len(data) > 1 && data[1]&1 == 1
	o := NewObserver(q, leader, ObserverOptions{Sink: sink, Trial: len(data) % 5})
	split := len(data) / 2
	for i := 0; i+1 < len(data); i += 2 {
		if i == split&^1 {
			o.CompileRules(tab)
		}
		x, y := core.State(int(data[i]>>4)%q), core.State(int(data[i+1]>>4)%q)
		switch data[i] & 3 {
		case 0, 1:
			x2, y2 := tab.Mobile(x, y)
			o.ObserveMobile(core.Pair{A: int(x) % q, B: int(y+1) % q}, x, y, x2, y2, true)
		case 2:
			if leader {
				o.ObserveLeaderRule(x, y, true)
			} else if o.rulesDense == nil {
				o.ObserveRule(x, y, y, x, true) // not the table's rule
			}
		default:
			o.ObserveNulls(int(data[i+1] & 7))
		}
	}
	switch naming % 3 {
	case 1:
		o.SetValidNaming(true)
	case 2:
		o.SetValidNaming(false)
	}
	o.SetForced(forced)
	o.Finish(naming&4 != 0)
	return o, sink
}

// encodeRef is what json.Encoder writes for rec, or its error.
func encodeRef(rec any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(rec)
	return b.Bytes(), err
}

// checkEncoding requires JournalSink, MarshalRecord and appendRecord to
// write json.Encoder's bytes for rec, or to fail where it fails.
func checkEncoding(t *testing.T, rec any) []byte {
	t.Helper()
	want, wantErr := encodeRef(rec)
	var journal bytes.Buffer
	sinkErr := NewJournalSink(&journal).Emit(rec)
	line, lineErr := MarshalRecord(rec)
	appended, ok, appendErr := appendRecord([]byte("prefix"), rec)
	if !ok {
		t.Fatalf("%T has no append encoder", rec)
	}
	if wantErr != nil {
		if sinkErr == nil || lineErr == nil || appendErr == nil {
			t.Fatalf("json.Encoder fails with %v, encoders with %v, %v, %v", wantErr, sinkErr, lineErr, appendErr)
		}
		if journal.Len() != 0 || string(appended) != "prefix" {
			t.Fatalf("a failed encode wrote %q, appended %q", journal.Bytes(), appended)
		}
		return nil
	}
	for _, got := range []struct {
		name string
		b    []byte
		err  error
	}{{"JournalSink", journal.Bytes(), sinkErr}, {"MarshalRecord", line, lineErr}, {"appendRecord", bytes.TrimPrefix(appended, []byte("prefix")), appendErr}} {
		if got.err != nil || !bytes.Equal(got.b, want) {
			t.Fatalf("%s wrote %s (err %v)\njson.Encoder writes %s", got.name, got.b, got.err, want)
		}
	}
	return want
}

func FuzzJournalEncode(f *testing.F) {
	f.Add([]byte{}, uint8(0), int64(0), "summary", 0.0, "")
	f.Add([]byte{10, 1, 0x50, 0x20, 0x52, 0x20, 0xa2, 0x90, 0xa1, 0xb0, 0x30, 0x40}, uint8(1), int64(3), "summary", 2.5, "(1,2)->(3,4)")
	f.Add([]byte{12, 0, 0xa0, 0x20, 0x20, 0xa0, 0xa0, 0x20, 0xb0, 0x10, 0x20, 0xa0, 0xa0, 0x20}, uint8(6), int64(0), "summary", 1e21, "")
	f.Add([]byte{4, 1, 0x12, 0x30, 0x22, 0x10, 0x13, 0x07, 0x12, 0x30}, uint8(2), int64(-7), `<tag>&"\`, 1e-7, "bad \xff utf8   \x01 \t")
	f.Add([]byte{15, 0, 0xf0, 0xe0, 0xe1, 0xf0, 0xd1, 0xc0}, uint8(5), int64(1)<<40, "progress", math.NaN(), "")
	f.Add([]byte{3, 0, 0x00, 0x10, 0x10, 0x00}, uint8(0), int64(0), "summary", math.Inf(-1), "")
	f.Add([]byte{3, 1}, uint8(3), int64(0), "summary", 5e-324, "")
	f.Add([]byte{9, 0, 0x80, 0x90, 0x90, 0x80, 0x81, 0x90, 0x80, 0x90}, uint8(4), int64(0), "summary", -0.000001, "")
	f.Fuzz(func(t *testing.T, data []byte, naming uint8, forced int64, typ string, par float64, rule string) {
		o, sink := fuzzObserver(data, naming, forced)
		if got, want := o.RuleCounts(), refRuleCounts(o); !slices.Equal(got, want) {
			t.Fatalf("RuleCounts = %v\nreference  %v", got, want)
		}
		if len(sink.recs) != 2 {
			t.Fatalf("Finish emitted %d records, want progress and summary", len(sink.recs))
		}
		progress, _ := sink.recs[0].(Progress)
		sum, ok := sink.recs[1].(Summary)
		if !ok {
			t.Fatalf("last record is %T", sink.recs[1])
		}
		if !slices.Equal(sum.Rules, o.RuleCounts()) {
			t.Fatalf("summary rules %v, RuleCounts %v", sum.Rules, o.RuleCounts())
		}
		var journal []byte
		for _, rec := range []any{progress, sum} {
			journal = append(journal, checkEncoding(t, rec)...)
		}
		var got []ScanRec
		if torn, err := ScanJournal(journal, func(r *ScanRec) error { got = append(got, *r); return nil }); torn || err != nil {
			t.Fatalf("ScanJournal: torn %v, err %v\n%s", torn, err, journal)
		}
		want := NamingUnknown
		if sum.ValidNaming != nil {
			want = map[bool]Naming{true: NamingValid, false: NamingInvalid}[*sum.ValidNaming]
		}
		if s := got[0].Summary; len(got) != 1 || s.Trial != sum.Trial || s.Converged != sum.Converged || s.Steps != sum.Steps || s.ValidNaming != want {
			t.Fatalf("ScanJournal read %+v from %+v", got, sum)
		}
		// Any text in the string members, any parallel time.
		sum.Type, sum.ParallelTime = typ, par
		sum.Rules = append(sum.Rules, RuleCount{Rule: rule, Count: uint64(forced)})
		progress.Type = typ
		checkEncoding(t, sum)
		checkEncoding(t, progress)
	})
}

// filled returns a value of type t with every field set to a non-zero
// value (a slice holds one element), so json.Marshal writes every
// member, omitempty ones included.
func filled(t reflect.Type, n *int) reflect.Value {
	v := reflect.New(t).Elem()
	*n++
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			v.Field(i).Set(filled(t.Field(i).Type, n))
		}
	case reflect.Slice:
		v.Set(reflect.Append(v, filled(t.Elem(), n)))
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		v.Elem().Set(filled(t.Elem(), n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString("s->" + string(rune('a'+*n)))
	default:
		panic("filled: no value for " + t.String())
	}
	return v
}

// TestEncodersWriteEveryField walks the json tags of the records with
// append encoders and of the types they nest: with every field set, the
// encoders must write each tag, and json.Encoder's bytes. A field added
// to one of these structs fails here until the encoder writes it.
func TestEncodersWriteEveryField(t *testing.T) {
	for _, rec := range []any{Summary{}, Progress{}} {
		n := 0
		v := filled(reflect.TypeOf(rec), &n).Interface()
		got := string(checkEncoding(t, v))
		var tags func(reflect.Type)
		tags = func(rt reflect.Type) {
			for i := range rt.NumField() {
				f := rt.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if !strings.Contains(got, `"`+name+`":`) {
					t.Errorf("%s.%s (json %q) is not encoded in %s", rt.Name(), f.Name, name, got)
				}
				if et := f.Type; et.Kind() == reflect.Slice && et.Elem().Kind() == reflect.Struct {
					tags(et.Elem()) // HistBucket, RuleCount
				}
			}
		}
		tags(reflect.TypeOf(rec))
	}
}

// TestRuleCountsTextOrder: ties sort by rule text, where "(10," comes
// before "(2," and mobile rules before leader rules.
func TestRuleCountsTextOrder(t *testing.T) {
	o := NewObserver(12, true, ObserverOptions{})
	o.ObserveLeaderRule(1, 2, true)
	o.ObserveRule(2, 0, 3, 0, true)
	o.ObserveRule(10, 0, 11, 0, true)
	o.ObserveRule(1, 11, 1, 0, true)
	o.CompileRules(fuzzTable(12))
	o.ObserveRule(1, 11, 2, 1, true)
	var got []string
	for _, rc := range o.RuleCounts() {
		got = append(got, rc.Rule)
	}
	want := []string{"(1,11)->(1,0)", "(1,11)->(2,1)", "(10,0)->(11,0)", "(2,0)->(3,0)", "(L,1)->(L,2)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RuleCounts order = %q, want %q", got, want)
	}
}
