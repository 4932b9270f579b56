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

// decodeRec decodes one journal line: a probe decode reads the "type"
// field, then known types decode again into their typed record. ok is
// false for lines that are not a v1 record (invalid JSON, no "type"
// field, or a known type whose payload does not decode) — the
// torn-tail signal.
func decodeRec(line []byte) (Rec, bool) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Type == "" {
		return Rec{}, false
	}
	rec, dst := typedRec(probe.Type)
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
// is allocated, plus that record as the decode target. dst is nil for
// unknown types.
func typedRec(name string) (rec Rec, dst any) {
	switch name {
	case "header":
		rec.Header = &Header{}
		return rec, rec.Header
	case "progress":
		rec.Progress = &Progress{}
		return rec, rec.Progress
	case "summary":
		rec.Summary = &Summary{}
		return rec, rec.Summary
	case "batch_summary":
		rec.Batch = &BatchSummaryRec{}
		return rec, rec.Batch
	case "census":
		rec.Census = &CensusRec{}
		return rec, rec.Census
	case "fault":
		rec.Fault = &FaultRec{}
		return rec, rec.Fault
	case "experiment":
		rec.Experiment = &ExperimentRec{}
		return rec, rec.Experiment
	case "explore":
		rec.Explore = &ExploreRec{}
		return rec, rec.Explore
	case "stage":
		rec.Stage = &StageRec{}
		return rec, rec.Stage
	case "lease":
		rec.Lease = &LeaseRec{}
		return rec, rec.Lease
	case "span":
		rec.Span = &SpanRec{}
		return rec, rec.Span
	}
	return rec, nil
}
