package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"popnaming/internal/core"
)

func TestJournalSinkRecords(t *testing.T) {
	var buf bytes.Buffer
	s := NewJournalSink(&buf)
	h := NewHeader("test")
	h.Protocol = "asym"
	h.Seed = 7
	if err := s.Emit(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(NewExperimentRec("sweep", "E12", true, 123)); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var hdr map[string]any
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr["v"] != float64(Version) || hdr["type"] != "header" || hdr["protocol"] != "asym" || hdr["seed"] != float64(7) {
		t.Fatalf("header = %v", hdr)
	}
}

func TestExploreRecMarshal(t *testing.T) {
	var buf bytes.Buffer
	s := NewJournalSink(&buf)
	rec := NewExploreRec("symglobal", 4)
	rec.Workers = 8
	rec.Nodes = 625
	rec.Edges = 5000
	rec.Depth = 9
	rec.InternHits = 4380
	rec.InternMisses = 625
	rec.InternHitRate = 0.875
	rec.ShardMin = 10
	rec.ShardMax = 30
	rec.WallNS = 1_000_000
	rec.NodesPerSec = 625_000
	if err := s.Emit(rec); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &got); err != nil {
		t.Fatalf("record not JSON: %v", err)
	}
	for k, want := range map[string]any{
		"v": float64(Version), "type": "explore", "protocol": "symglobal",
		"n": float64(4), "workers": float64(8), "nodes": float64(625),
		"depth": float64(9), "internHitRate": 0.875, "shardMax": float64(30),
		"nodesPerSec": float64(625_000),
	} {
		if got[k] != want {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
}

// TestJournalSinkConcurrent exercises the mutex path under the race
// detector: many goroutines share one sink, writing records that go
// through encoding/json and records the append encoders write into the
// same buffer, and every line must still be a complete JSON object.
func TestJournalSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewJournalSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				recs := []any{
					NewStageRec("stage", "", int64(g*100+i)),
					Progress{V: Version, Type: "progress", Trial: g, Step: uint64(i)},
					Summary{V: Version, Type: "summary", Trial: g, Steps: uint64(i), Rules: []RuleCount{{Rule: "(0,1)->(1,0)", Count: uint64(i)}}},
				}
				if err := s.Emit(recs[i%3]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 480 {
		t.Fatalf("got %d lines, want 480", len(lines))
	}
	types := map[string]int{}
	for _, l := range lines {
		var rec struct{ Type string }
		if err := json.Unmarshal(l, &rec); err != nil {
			t.Fatalf("corrupt line %q: %v", l, err)
		}
		types[rec.Type]++
	}
	if types["stage"] != 160 || types["progress"] != 160 || types["summary"] != 160 {
		t.Fatalf("record types %v, want 160 of each", types)
	}
}

func TestJournalSinkRetainsError(t *testing.T) {
	s := NewJournalSink(failWriter{})
	if err := s.Emit(NewHeader("x")); err == nil {
		t.Fatal("expected write error")
	}
	if s.Err() == nil {
		t.Fatal("Err not retained")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestOpenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, closeFn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Emit(NewHeader("test")); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr Header
	if err := json.Unmarshal(bytes.TrimSpace(b), &hdr); err != nil {
		t.Fatalf("journal content %q: %v", b, err)
	}
	if hdr.Tool != "test" {
		t.Fatalf("tool = %q", hdr.Tool)
	}
}

// TestNilJournalSink pins the nil-receiver contract: an optional
// journal stored as a typed *JournalSink pointer flows into the Sink
// interface even when nil, and metrics-only observers must be able to
// emit through it without panicking.
func TestNilJournalSink(t *testing.T) {
	var s *JournalSink
	if err := s.Emit(NewHeader("test")); err != nil {
		t.Fatalf("nil sink Emit: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("nil sink Err: %v", err)
	}
	o := NewObserver(4, false, ObserverOptions{Sink: s, ProgressEvery: 1})
	o.ObserveMobile(core.Pair{A: 0, B: 1}, 0, 0, 0, 1, true)
	o.TrackCensus([]int{2, 2})
	o.ObserveRule(0, 1, 1, 1, true)
	o.Finish(true)
}

// TestCanonical: the canonical form drops exactly the wall-clock keys,
// sorts object keys, keeps int64 seeds beyond 2⁵³ exact (a float64
// round trip would merge these two), and passes foreign lines through.
func TestCanonical(t *testing.T) {
	in := []byte(`{"v":1,"type":"header","seed":8932749823749823749,"elapsedNs":5}` + "\n" +
		`{"type":"span","durNs":7,"queueWaitNs":3,"name":"trial","wallNs":1,"utilization":0.5,"nodesPerSec":9.5}` + "\n" +
		"\n" +
		"not json\n")
	want := `{"seed":8932749823749823749,"type":"header","v":1}` + "\n" +
		`{"name":"trial","type":"span"}` + "\n" +
		"not json\n"
	if got := string(Canonical(in)); got != want {
		t.Fatalf("Canonical =\n%s\nwant\n%s", got, want)
	}
	a := Canonical([]byte(`{"seed":8932749823749823749}`))
	b := Canonical([]byte(`{"seed":8932749823749823750}`))
	if bytes.Equal(a, b) {
		t.Fatalf("distinct seeds canonicalized to the same bytes %s", a)
	}
}
