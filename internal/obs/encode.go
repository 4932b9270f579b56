package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The append encoders below write the two records every trial closes
// with, progress and summary, without reflection. They write exactly
// the bytes json.Encoder writes for the same value: its field order and
// omitempty rules, its float form, and its string escaping with HTML
// escaping on (so every rule's "->" reads "-\u003e"). The other record
// types go through encoding/json.

// appendRecord appends rec's journal line, its JSON encoding and a
// newline, when rec is a record with an append encoder, and reports
// whether it is. Nothing is appended on error.
func appendRecord(b []byte, rec any) (_ []byte, ok bool, err error) {
	switch r := rec.(type) {
	case Summary:
		b, err = appendSummary(b, &r)
	case Progress:
		b = appendProgress(b, &r)
	default:
		return b, false, nil
	}
	if err != nil {
		return b, true, err
	}
	return append(b, '\n'), true, nil
}

// lines recycles MarshalRecord's encoding buffers.
var lines = sync.Pool{New: func() any { return new([]byte) }}

// MarshalRecord returns rec's journal line, the bytes a JournalSink
// writes for it: its JSON encoding and a newline. The line is the
// caller's to keep.
func MarshalRecord(rec any) ([]byte, error) {
	p := lines.Get().(*[]byte)
	defer lines.Put(p)
	line, ok, err := appendRecord((*p)[:0], rec)
	if !ok {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
	*p = line
	if err != nil {
		return nil, err
	}
	return bytes.Clone(line), nil
}

// appendSummary appends s as JSON. A NaN or infinite ParallelTime is
// an error, as in encoding/json, and leaves b as it was.
func appendSummary(b []byte, s *Summary) ([]byte, error) {
	start := len(b)
	b = appendHead(b, s.V, s.Type, s.Trial)
	b = strconv.AppendBool(append(b, `,"converged":`...), s.Converged)
	b = strconv.AppendUint(append(b, `,"steps":`...), s.Steps, 10)
	b = strconv.AppendUint(append(b, `,"nonNull":`...), s.NonNull, 10)
	b, err := appendFloat(append(b, `,"parallelTime":`...), s.ParallelTime)
	if err != nil {
		return b[:start], err
	}
	b = strconv.AppendInt(append(b, `,"maxQuiet":`...), s.MaxQuiet, 10)
	if len(s.QuietStreaks) > 0 {
		b = append(b, `,"quietStreaks":[`...)
		for i, h := range s.QuietStreaks {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"lo":`...), h.Lo, 10)
			b = strconv.AppendInt(append(b, `,"hi":`...), h.Hi, 10)
			b = strconv.AppendUint(append(b, `,"count":`...), h.Count, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendPairs(b, s.PairsSeen, s.PairsTotal, s.FairnessGap)
	if len(s.Rules) > 0 {
		b = append(b, `,"rules":[`...)
		for i, r := range s.Rules {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"rule":`...), r.Rule)
			b = strconv.AppendUint(append(b, `,"count":`...), r.Count, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if s.Forced != 0 {
		b = strconv.AppendInt(append(b, `,"forced":`...), s.Forced, 10)
	}
	if s.ValidNaming != nil {
		b = strconv.AppendBool(append(b, `,"validNaming":`...), *s.ValidNaming)
	}
	b = strconv.AppendInt(append(b, `,"elapsedNs":`...), s.ElapsedNS, 10)
	return append(b, '}'), nil
}

// appendProgress appends p as JSON.
func appendProgress(b []byte, p *Progress) []byte {
	b = appendHead(b, p.V, p.Type, p.Trial)
	b = strconv.AppendUint(append(b, `,"step":`...), p.Step, 10)
	b = strconv.AppendUint(append(b, `,"nonNull":`...), p.NonNull, 10)
	b = strconv.AppendInt(append(b, `,"quiet":`...), p.Quiet, 10)
	b = appendPairs(b, p.PairsSeen, p.PairsTotal, p.FairnessGap)
	b = strconv.AppendInt(append(b, `,"elapsedNs":`...), p.ElapsedNS, 10)
	return append(b, '}')
}

// appendHead opens a record object with its v, type and trial members.
func appendHead(b []byte, v int, typ string, trial int) []byte {
	b = strconv.AppendInt(append(b, `{"v":`...), int64(v), 10)
	b = appendString(append(b, `,"type":`...), typ)
	return strconv.AppendInt(append(b, `,"trial":`...), int64(trial), 10)
}

// appendPairs appends the pair-coverage members progress and summary
// records share.
func appendPairs(b []byte, seen, total int, gap int64) []byte {
	b = strconv.AppendInt(append(b, `,"pairsSeen":`...), int64(seen), 10)
	b = strconv.AppendInt(append(b, `,"pairsTotal":`...), int64(total), 10)
	return strconv.AppendInt(append(b, `,"fairnessGap":`...), gap, 10)
}

// appendFloat appends f as encoding/json does: the shortest decimal
// that reads back as f, in 'f' form for 1e-6 <= |f| < 1e21 (and 0) and
// in 'e' form otherwise, with a one-digit negative exponent unpadded
// (1e-7, not 1e-07). NaN and infinities are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it by default: '"' and '\\' with a backslash, \b \f \n \r \t
// by name, the other control bytes and the HTML-sensitive <, > and & as
// \u00XX, U+2028 and U+2029 as \u202X, and each byte of invalid UTF-8
// as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
