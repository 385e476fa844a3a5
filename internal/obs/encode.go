package obs

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"tilesim/internal/stats"
)

// The metric writer: one append-based encoder behind every encoding of
// a metric or a snapshot (DESIGN.md §10.2), in three formats:
//
//   - Metric.MarshalJSON: one metric, with its type's active fields;
//   - WriteCompactJSON, and Snapshot.MarshalJSON on top of it: the
//     bytes json.Marshal writes for map[string]Metric, streamed;
//   - WriteJSON: the pretty, zero-omitting -metrics-out file.

// format selects one of the writer's output formats.
type format int

const (
	compact format = iota // encoding/json's bytes
	pretty                // WriteJSON's file
)

// metricFields are the JSON names of Metric's numeric fields in
// declaration order; bit i of a field mask selects metricFields[i].
var metricFields = [...]string{"count", "value", "mean", "min", "max", "p50", "p99"}

// activeFields returns the mask of the fields meaningful for a metric
// type, which the compact format emits zero or not, so a counter at
// Count 0 ({"type":"counter","count":0}) is distinguishable from an
// absent field. It returns 0 for an unknown type.
func activeFields(typ string) uint8 {
	switch typ {
	case "counter":
		return 0b0000001
	case "gauge":
		return 0b0000010
	case "mean":
		return 0b0011101 // count, mean, min, max
	case "histogram":
		return 0b1111101 // the mean's fields, p50 and p99
	}
	return 0
}

// floats returns m's numeric fields in metricFields order, Count
// converted (exact below 2^53, and only ever tested against 0).
func (m *Metric) floats() [len(metricFields)]float64 {
	return [...]float64{float64(m.Count), m.Value, m.Mean, m.Min, m.Max, m.P50, m.P99}
}

// appendMetric appends m as one JSON object: "type", then in the
// compact format its type's active fields (an unknown type's non-zero
// ones), in the pretty format every non-zero field, with a space after
// each colon and comma.
func appendMetric(b []byte, m *Metric, f format) []byte {
	vals := m.floats()
	var mask uint8
	for i, v := range vals {
		if v != 0 {
			mask |= 1 << i
		}
	}
	sep, colon := ", ", ": "
	if f == compact {
		sep, colon = ",", ":"
		if active := activeFields(m.Type); active != 0 {
			mask = active
		}
	}
	b = append(b, `{"type"`...)
	b = append(b, colon...)
	b = appendString(b, m.Type, f == compact)
	for i, name := range metricFields {
		if mask&(1<<i) == 0 {
			continue
		}
		b = append(b, sep...)
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, '"')
		b = append(b, colon...)
		if i == 0 {
			b = strconv.AppendUint(b, m.Count, 10)
		} else {
			b = appendFloat(b, vals[i])
		}
	}
	return append(b, '}')
}

// appendString appends s as a JSON string, escaped by encoding/json's
// rules: '"' and '\\' with a backslash; \b, \f, \n, \r and \t by name;
// every other control byte, U+2028 and U+2029 as \u escapes; each
// invalid UTF-8 byte as \ufffd. escapeHTML writes '<', '>' and '&' as
// \u escapes too, as json.Marshal does, so the compact format writes
// the link name "net.link.00->01.B.flits" as
// "net.link.00-\u003e01.B.flits". The pretty file, the series JSON and
// the tracer leave them alone, so each writes a printable-ASCII name
// as strconv.Quote does.
func appendString(b []byte, s string, escapeHTML bool) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && !(escapeHTML && (c == '<' || c == '>' || c == '&')) {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends v in shortest round-trip form
// (strconv 'g', -1), NaN and ±Inf as 0, which valid metrics never
// produce: encoding never fails.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatFloat returns appendFloat's rendering of v as a string.
func formatFloat(v float64) string { return string(appendFloat(nil, v)) }

// MarshalJSON emits the metric with its type's active fields always
// present and the inactive ones (zero by construction) omitted; an
// unknown type emits every non-zero field.
func (m Metric) MarshalJSON() ([]byte, error) { return appendMetric(nil, &m, compact), nil }

// MarshalJSON returns WriteCompactJSON's bytes, for encoding/json
// callers such as figures' metrics sidecars.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	err := s.WriteCompactJSON(&buf)
	return buf.Bytes(), err
}

// WriteCompactJSON streams the bytes json.Marshal writes for
// map[string]Metric(s): keys sorted bytewise, each value in
// Metric.MarshalJSON's form, no whitespace, and null for a nil
// snapshot. It holds the sorted names and one buffer, never the whole
// encoding (1.4 MB at 1024 tiles).
func (s Snapshot) WriteCompactJSON(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "null")
		return err
	}
	return s.write(w, compact)
}

// WriteJSON serializes the snapshot as pretty-printed JSON with sorted
// keys and shortest-round-trip floats, omitting zero-valued fields, so
// two snapshots of identical readings are byte-identical.
func (s Snapshot) WriteJSON(w io.Writer) error { return s.write(w, pretty) }

// flushAt is the buffered length at which write hands its buffer to w.
const flushAt = 32 << 10

// write streams s to w in format f, one name at a time in sorted order.
func (s Snapshot) write(w io.Writer, f format) error {
	open, sep, colon, end := "{", ",", ":", "}"
	if f == pretty {
		open, sep, colon, end = "{\n", ",\n", ": ", "\n}\n"
	}
	b := make([]byte, 0, flushAt+1024)
	b = append(b, open...)
	for i, name := range stats.SortedKeys(s) {
		if i > 0 {
			b = append(b, sep...)
		}
		if f == pretty {
			b = append(b, "  "...)
		}
		b = appendString(b, name, f == compact)
		b = append(b, colon...)
		m := s[name]
		b = appendMetric(b, &m, f)
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, end...)
	_, err := w.Write(b)
	return err
}
