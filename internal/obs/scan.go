package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ScanRec is what the campaign reducer folds from one journal record:
// its Type, "header", "summary", "batch_summary" or "fault", and the
// struct of that name, holding only the keys the reducer reads; the
// other three structs are zero. Each struct decodes with encoding/json
// exactly as its fields would from the full record.
type ScanRec struct {
	Type string

	Header struct {
		Seed int64 `json:"seed"`
	}
	Summary struct {
		Trial       int    `json:"trial"`
		Converged   bool   `json:"converged"`
		Steps       uint64 `json:"steps"`
		ValidNaming Naming `json:"validNaming"`
	}
	Batch struct {
		Trials    int `json:"trials"`
		Converged int `json:"converged"`
		Aborted   int `json:"aborted"`
		Retried   int `json:"retried"`
	}
	Fault struct {
		Trial       int    `json:"trial"`
		Step        int64  `json:"step"`
		Kind        string `json:"kind"`
		Trigger     string `json:"trigger"`
		ValidNaming Naming `json:"validNaming"`
	}
}

// Naming is a journaled validNaming: whether a configuration was a
// valid naming. NamingUnknown stands for an absent field, as in
// journals written before the field existed.
type Naming int8

const (
	NamingUnknown Naming = iota
	NamingValid
	NamingInvalid
)

// UnmarshalJSON decodes true, false and null as a *bool field would:
// null leaves the verdict unknown.
func (n *Naming) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "true":
		*n = NamingValid
	case "false":
		*n = NamingInvalid
	case "null":
		*n = NamingUnknown
	default:
		return fmt.Errorf("obs: validNaming %.20s is not a bool", b)
	}
	return nil
}

// ScanJournal walks the JSONL journal in data once, line by line, with
// ReadJournal's torn-tail semantics, and calls fn with every header,
// summary, batch_summary and fault record as a ScanRec. Records of
// other types are checked and skipped. The ScanRec is reused from
// record to record: fn must not keep it.
//
// A line tears the journal when it is not a JSON object with a
// non-empty string "type", or when a field ScanRec holds fails to
// decode. A type error in any other field leaves the line intact,
// where ReadJournal's typed decode would tear it.
//
// A line whose ScanRec keys are plain, as JournalSink writes them, is
// decoded without reflection and without allocating: json.Valid, then
// one walk over the object's top-level members, strconv for the
// values. A line with one of those keys escaped, in a case variant,
// duplicated, null or of an unexpected form is decoded with
// encoding/json into the same fields, so both paths agree on every
// input.
//
// Errors returned by fn abort the scan and are returned verbatim; torn
// and err are never both set.
func ScanJournal(data []byte, fn func(*ScanRec) error) (torn bool, err error) {
	var s scanner
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			// Trailing bytes without a newline are a torn write, even
			// if they happen to parse.
			return len(bytes.TrimSpace(data)) > 0, nil
		}
		line := bytes.TrimSpace(data[:i])
		data = data[i+1:]
		if len(line) == 0 {
			continue
		}
		ok, deliver := s.decode(line)
		if !ok {
			return true, nil
		}
		if deliver {
			if err := fn(&s.rec); err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// The top-level keys the scan reads, the record type first. A key is
// plain when encoding/json would match it to its field and to nothing
// else of ScanRec.
const (
	keyType = iota
	keySeed
	keyTrial
	keyConverged
	keySteps
	keyValidNaming
	keyTrials
	keyAborted
	keyRetried
	keyStep
	keyKind
	keyTrigger
	numKeys
)

// keyNames spells each key as the writers do.
var keyNames = [numKeys]string{"type", "seed", "trial", "converged", "steps", "validNaming", "trials", "aborted", "retried", "step", "kind", "trigger"}

// scanner is one ScanJournal's state: the record it hands out, and
// the last fault kind and trigger, which a fault record with the same
// text reuses, so a journal pays for each once, not once per record.
type scanner struct {
	rec           ScanRec
	kind, trigger string
}

// decode reads one trimmed, non-blank line into s.rec. ok is false
// when the line tears the journal; deliver is false for a record type
// ScanRec does not hold.
func (s *scanner) decode(line []byte) (ok, deliver bool) {
	if !json.Valid(line) {
		return false, false
	}
	var vals [numKeys][]byte
	if line[0] != '{' || !members(line, &vals) {
		return s.decodeJSON(line)
	}
	t := vals[keyType]
	if len(t) < 3 || !plainString(t) {
		return s.decodeJSON(line) // absent, empty, escaped or not a string
	}
	r := &s.rec
	*r = ScanRec{}
	switch string(t[1 : len(t)-1]) {
	case "header":
		r.Type = "header"
		ok = scanInt64(vals[keySeed], &r.Header.Seed)
	case "summary":
		r.Type = "summary"
		m := &r.Summary
		ok = scanInt(vals[keyTrial], &m.Trial) && scanBool(vals[keyConverged], &m.Converged) &&
			scanUint64(vals[keySteps], &m.Steps) && scanNaming(vals[keyValidNaming], &m.ValidNaming)
	case "batch_summary":
		r.Type = "batch_summary"
		b := &r.Batch
		ok = scanInt(vals[keyTrials], &b.Trials) && scanInt(vals[keyConverged], &b.Converged) &&
			scanInt(vals[keyAborted], &b.Aborted) && scanInt(vals[keyRetried], &b.Retried)
	case "fault":
		r.Type = "fault"
		f := &r.Fault
		ok = scanInt(vals[keyTrial], &f.Trial) && scanInt64(vals[keyStep], &f.Step) &&
			scanString(vals[keyKind], &s.kind, &f.Kind) && scanString(vals[keyTrigger], &s.trigger, &f.Trigger) &&
			scanNaming(vals[keyValidNaming], &f.ValidNaming)
	default:
		return true, false
	}
	if !ok {
		return s.decodeJSON(line)
	}
	return true, true
}

// decodeJSON decodes line with encoding/json: a probe for its type,
// then the type's ScanRec struct.
func (s *scanner) decodeJSON(line []byte) (ok, deliver bool) {
	var probe struct {
		Type string `json:"type"`
	}
	if json.Unmarshal(line, &probe) != nil || probe.Type == "" {
		return false, false
	}
	r := &s.rec
	*r = ScanRec{Type: probe.Type}
	var dst any
	switch probe.Type {
	case "header":
		dst = &r.Header
	case "summary":
		dst = &r.Summary
	case "batch_summary":
		dst = &r.Batch
	case "fault":
		dst = &r.Fault
	default:
		return true, false
	}
	return json.Unmarshal(line, dst) == nil, true
}

// members walks the top-level members of the object in line, which
// json.Valid accepted, and stores the value of each key the scan
// reads in vals. It reports false when a key is not plain: escaped or
// non-ASCII (it may decode or fold to one of the keys), a case variant
// of one, or a repeat.
func members(line []byte, vals *[numKeys][]byte) bool {
	i := skipSpace(line, 1)
	for line[i] != '}' {
		end := skipString(line, i)
		k, plain := keyOf(line[i+1 : end-1])
		if !plain {
			return false
		}
		i = skipSpace(line, skipSpace(line, end)+1) // past the colon
		end = skipValue(line, i)
		if k >= 0 {
			if vals[k] != nil {
				return false
			}
			vals[k] = line[i:end]
		}
		if i = skipSpace(line, end); line[i] == ',' {
			i = skipSpace(line, i+1)
		}
	}
	return true
}

// keyOf returns which key the unquoted key names, or -1, and whether
// it is plain.
func keyOf(key []byte) (k int, plain bool) {
	for _, c := range key {
		if c == '\\' || c >= utf8.RuneSelf {
			return -1, false
		}
	}
	for k, name := range keyNames {
		if len(key) == len(name) && strings.EqualFold(string(key), name) {
			return k, string(key) == name
		}
	}
	return -1, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// skipString returns the index just past the string whose opening
// quote is at b[i].
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return i
}

// skipValue returns the index just past the valid JSON value that
// starts at b[i].
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return i
	}
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' && b[i] != '\n' {
		i++
	}
	return i
}

// plainString reports whether v is a JSON string whose text is its
// value: no escapes, valid UTF-8.
func plainString(v []byte) bool {
	return len(v) >= 2 && v[0] == '"' && bytes.IndexByte(v, '\\') < 0 && utf8.Valid(v)
}

// The scan* helpers decode one value the scan read into *dst, where an
// absent key (nil v) leaves the zero value. They report false for any
// other form than the writers', which sends the line to encoding/json.

func parseInt(v []byte, bits int) (int64, bool) {
	if v == nil {
		return 0, true
	}
	n, err := strconv.ParseInt(string(v), 10, bits)
	return n, err == nil
}

func scanInt(v []byte, dst *int) bool {
	n, ok := parseInt(v, strconv.IntSize)
	*dst = int(n)
	return ok
}

func scanInt64(v []byte, dst *int64) (ok bool) {
	*dst, ok = parseInt(v, 64)
	return ok
}

func scanUint64(v []byte, dst *uint64) bool {
	if v == nil {
		return true
	}
	n, err := strconv.ParseUint(string(v), 10, 64)
	*dst = n
	return err == nil
}

func scanBool(v []byte, dst *bool) bool {
	switch string(v) {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return v == nil
	}
	return true
}

func scanNaming(v []byte, dst *Naming) bool {
	switch string(v) {
	case "true":
		*dst = NamingValid
	case "false":
		*dst = NamingInvalid
	default:
		return v == nil // null, too, goes to encoding/json
	}
	return true
}

// scanString decodes a plain string. *last is the text the previous
// record held; it is kept, not copied again, when the text is equal.
func scanString(v []byte, last, dst *string) bool {
	if v == nil {
		return true
	}
	if !plainString(v) {
		return false
	}
	if text := v[1 : len(v)-1]; string(text) != *last {
		*last = string(text)
	}
	*dst = *last
	return true
}
