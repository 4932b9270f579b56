package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
)

// Rec is one decoded v1 journal record. Type carries the record's
// "type" field and Raw the record's JSON bytes (newline-trimmed); for
// the known record types exactly one of the typed pointers is non-nil.
// Records of unknown type — service envelopes, future additions — are
// delivered with Raw only, so readers stay forward-compatible.
type Rec struct {
	Type string
	Raw  []byte

	Header     *Header
	Progress   *Progress
	Summary    *Summary
	Batch      *BatchSummaryRec
	Census     *CensusRec
	Fault      *FaultRec
	Experiment *ExperimentRec
	Explore    *ExploreRec
	Stage      *StageRec
	Lease      *LeaseRec
	Span       *SpanRec
}

// ReadJournal streams the JSONL journal in r through fn, decoding each
// line into a typed Rec. It is torn-tail tolerant: journals are
// routinely read mid-write or after a crash, so the first undecodable
// line — a partial JSON object, a line missing its terminating
// newline, or bytes that are not a v1 record at all — ends the read at
// the last intact record, reporting torn=true instead of an error
// (matching the WAL's truncate-at-first-bad-record semantics).
//
// Errors returned by fn abort the read and are returned verbatim; read
// errors from r other than io.EOF are returned as err. torn and err
// are never both set.
func ReadJournal(r io.Reader, fn func(Rec) error) (torn bool, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			// A terminated journal ends with a newline; trailing bytes
			// are a torn write, even if they happen to parse.
			return len(bytes.TrimSpace(line)) > 0, nil
		}
		if rerr != nil {
			return false, rerr
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		rec, ok := decodeRec(trimmed)
		if !ok {
			return true, nil
		}
		if err := fn(rec); err != nil {
			return false, err
		}
	}
}

// recPrefix is how JournalSink starts every record it writes: each
// record struct declares its version and type fields first.
var recPrefix = []byte(`{"v":1,"type":"`)

// decodeRec decodes one journal line. ok is false for lines that are
// not a v1 record (invalid JSON, no "type" field, or a known type
// whose payload does not decode) — the torn-tail signal.
//
// A line that starts with recPrefix and a known type name is decoded
// once, straight into that type, and accepted when the decoded Type
// field equals the name: the probe would have read the same value, so
// the result is the probe's. Anything else — case-variant or duplicate
// keys, escapes, unknown types, a failed decode — takes the probe.
func decodeRec(line []byte) (Rec, bool) {
	if rest, ok := bytes.CutPrefix(line, recPrefix); ok {
		if end := bytes.IndexByte(rest, '"'); end > 0 {
			name := rest[:end]
			rec, dst, typ := typedRec(name)
			if dst != nil && json.Unmarshal(line, dst) == nil && *typ == string(name) {
				rec.Type, rec.Raw = *typ, line
				return rec, true
			}
		}
	}
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Type == "" {
		return Rec{}, false
	}
	rec, dst, _ := typedRec([]byte(probe.Type))
	rec.Type, rec.Raw = probe.Type, line
	if dst == nil {
		return rec, true
	}
	if err := json.Unmarshal(line, dst); err != nil {
		return Rec{}, false
	}
	return rec, true
}

// typedRec returns a Rec whose typed pointer for the named record type
// is allocated, plus that record as the decode target and its Type
// field. dst is nil for unknown types.
func typedRec(name []byte) (rec Rec, dst any, typ *string) {
	switch string(name) {
	case "header":
		rec.Header = &Header{}
		return rec, rec.Header, &rec.Header.Type
	case "progress":
		rec.Progress = &Progress{}
		return rec, rec.Progress, &rec.Progress.Type
	case "summary":
		rec.Summary = &Summary{}
		return rec, rec.Summary, &rec.Summary.Type
	case "batch_summary":
		rec.Batch = &BatchSummaryRec{}
		return rec, rec.Batch, &rec.Batch.Type
	case "census":
		rec.Census = &CensusRec{}
		return rec, rec.Census, &rec.Census.Type
	case "fault":
		rec.Fault = &FaultRec{}
		return rec, rec.Fault, &rec.Fault.Type
	case "experiment":
		rec.Experiment = &ExperimentRec{}
		return rec, rec.Experiment, &rec.Experiment.Type
	case "explore":
		rec.Explore = &ExploreRec{}
		return rec, rec.Explore, &rec.Explore.Type
	case "stage":
		rec.Stage = &StageRec{}
		return rec, rec.Stage, &rec.Stage.Type
	case "lease":
		rec.Lease = &LeaseRec{}
		return rec, rec.Lease, &rec.Lease.Type
	case "span":
		rec.Span = &SpanRec{}
		return rec, rec.Span, &rec.Span.Type
	}
	return rec, nil, nil
}
