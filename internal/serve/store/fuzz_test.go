package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"
)

// FuzzRecDecode fuzzes the WAL record decoder — the one parser that
// faces bytes a crash may have mangled. Properties: DecodeRec never
// panics, and any line it accepts re-encodes to a line it accepts
// again with the same fields (so replay-after-rewrite is stable).
func FuzzRecDecode(f *testing.F) {
	// Seed corpus: well-formed records of each kind, then each framing
	// failure mode (short, unframed, bad hex, bad CRC, bad JSON, torn),
	// then a terminal record as logs written before cache hits stopped
	// being jobs hold it: its "cached" field is no longer in Rec, and
	// the record must still decode. Last, a lease record as logs
	// written before completed leases became shard jobs hold it, which
	// must decode too (Fold then ignores it).
	admit, _ := EncodeRec(Rec{V: Version, Seq: 1, T: RecAdmit, ID: "j000001",
		Spec: json.RawMessage(`{"kind":"sim","seed":7}`), SeedDerived: true})
	running, _ := EncodeRec(Rec{V: Version, Seq: 2, T: RecState, ID: "j000001", State: StateRunning})
	done, _ := EncodeRec(Rec{V: Version, Seq: 3, T: RecState, ID: "j000001", State: StateDone,
		Summary: json.RawMessage(`{"ok":true}`), WallNS: 12345, ResultLines: 9})
	legacyBody := `{"v":1,"seq":4,"t":"state","id":"j000002","state":"done","summary":{"ok":true},"cached":true,"wallNs":0,"resultLines":9}`
	legacy := []byte(fmt.Sprintf("%08x %s", crc32.ChecksumIEEE([]byte(legacyBody)), legacyBody))
	if rec, err := DecodeRec(legacy); err != nil || rec.State != StateDone || rec.ResultLines != 9 {
		f.Fatalf("pre-change cached terminal record: %+v, %v", rec, err)
	}
	if rec, err := DecodeRec(legacyLease()); err != nil || rec.T != "lease" || rec.ID != "j000001" {
		f.Fatalf("pre-change lease record: %+v, %v", rec, err)
	}
	for _, seed := range [][]byte{
		admit[:len(admit)-1],
		running[:len(running)-1],
		done[:len(done)-1],
		[]byte(""),
		[]byte("short"),
		[]byte("00000000 {}"),
		[]byte("zzzzzzzz {}"),
		[]byte("deadbeef {\"v\":1}"),
		[]byte("00000000 not json"),
		admit[:len(admit)/2],
		legacy,
		legacyLease(),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeRec(line)
		if err != nil {
			return
		}
		reline, err := EncodeRec(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		rec2, err := DecodeRec(reline[:len(reline)-1])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.Seq != rec.Seq || rec2.T != rec.T || rec2.ID != rec.ID ||
			rec2.State != rec.State || rec2.Error != rec.Error ||
			rec2.WallNS != rec.WallNS || rec2.ResultLines != rec.ResultLines {
			t.Fatalf("round-trip changed fields: %+v != %+v", rec2, rec)
		}
	})
}

// legacyLease is a completed-lease record of job j000001 as logs
// written before completed leases became shard jobs hold it.
func legacyLease() []byte {
	body := `{"v":1,"seq":2,"t":"lease","id":"j000001","lease":{"idx":0,"lo":0,"hi":4,"epoch":1,"state":"completed","peer":"http://p1","lines":5}}`
	return []byte(fmt.Sprintf("%08x %s", crc32.ChecksumIEEE([]byte(body)), body))
}
