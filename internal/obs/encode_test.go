package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// legacyMetric carries the Metric.MarshalJSON the metric writer
// replaced, kept verbatim with its helpers as the writer's reference.
type legacyMetric Metric

var legacyActiveFields = map[string][]string{
	"counter":   {"count"},
	"gauge":     {"value"},
	"mean":      {"count", "mean", "min", "max"},
	"histogram": {"count", "mean", "min", "max", "p50", "p99"},
}

func (m legacyMetric) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"type":` + strconv.Quote(m.Type))
	fields := legacyActiveFields[m.Type]
	if fields == nil {
		for _, f := range []string{"count", "value", "mean", "min", "max", "p50", "p99"} {
			if m.field(f) != 0 {
				fields = append(fields, f)
			}
		}
	}
	for _, f := range fields {
		b.WriteString("," + strconv.Quote(f) + ":")
		if f == "count" {
			fmt.Fprintf(&b, "%d", m.Count)
		} else {
			b.WriteString(legacyFormatFloat(m.field(f)))
		}
	}
	b.WriteString("}")
	return b.Bytes(), nil
}

func (m legacyMetric) field(name string) float64 {
	switch name {
	case "count":
		return float64(m.Count)
	case "value":
		return m.Value
	case "mean":
		return m.Mean
	case "min":
		return m.Min
	case "max":
		return m.Max
	case "p50":
		return m.P50
	case "p99":
		return m.P99
	}
	panic(fmt.Sprintf("obs: unknown metric field %q", name))
}

func legacyFormatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// legacyWriteJSON is the Snapshot.WriteJSON the writer replaced.
func legacyWriteJSON(s Snapshot, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	for i, e := range s {
		name, m := e.Name, e.Metric
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "  %s: {", strconv.Quote(name))
		fmt.Fprintf(bw, "\"type\": %s", strconv.Quote(m.Type))
		if m.Count != 0 {
			fmt.Fprintf(bw, ", \"count\": %d", m.Count)
		}
		legacyWriteFloatField(bw, "value", m.Value)
		legacyWriteFloatField(bw, "mean", m.Mean)
		legacyWriteFloatField(bw, "min", m.Min)
		legacyWriteFloatField(bw, "max", m.Max)
		legacyWriteFloatField(bw, "p50", m.P50)
		legacyWriteFloatField(bw, "p99", m.P99)
		bw.WriteString("}")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

func legacyWriteFloatField(w *bufio.Writer, key string, v float64) {
	if v == 0 {
		return
	}
	fmt.Fprintf(w, ", %s: %s", strconv.Quote(key), legacyFormatFloat(v))
}

// fuzzTypes are the snapshot's four metric types and one unknown ASCII
// type that needs escaping.
var fuzzTypes = [...]string{"counter", "gauge", "mean", "histogram", `odd<&>"\`}

// FuzzSnapshotJSON builds a snapshot from arbitrary names, types and
// values, through the constructor UnmarshalJSON uses, which keeps the
// last metric of a repeated name as a map literal does. Every encoding
// of it must match its reference: the streamed compact writer,
// Snapshot.MarshalJSON and json.Marshal of the snapshot must write the
// bytes encoding/json's own map encoder writes for the map literal,
// which must in turn equal that encoder's bytes over the legacy
// Metric.MarshalJSON. Get must find every name of the map and report
// an absent one, and UnmarshalJSON of the compact bytes must give what
// encoding/json decodes them to as a map[string]Metric, sorted by
// name. WriteJSON must decode with encoding/json to the names and types
// the compact bytes decode to, and write the legacy pretty file
// whenever every name and type is printable ASCII. A series with the
// two names as columns and a trace with them as track, event, category
// and arg names must decode and give the names back. The seed corpus
// is testdata/fuzz/FuzzSnapshotJSON.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("net.link.00->01.B.flits", "a&b", byte(0), uint64(0), 0.0, -1.5, 1e21, 1e-7, 2.5, -0.0)
	f.Fuzz(func(t *testing.T, name1, name2 string, typ byte, count uint64,
		value, mean, min, max, p50, p99 float64) {
		m := Metric{Type: fuzzTypes[int(typ)%len(fuzzTypes)], Count: count,
			Value: value, Mean: mean, Min: min, Max: max, P50: p50, P99: p99}
		// A second metric of the next type with the fields rotated.
		m2 := Metric{Type: fuzzTypes[(int(typ)+1)%len(fuzzTypes)], Count: count / 3,
			Value: p99, Mean: value, Min: mean, Max: min, P50: max, P99: p50}
		m3 := Metric{Type: m.Type}
		ref := map[string]Metric{name1: m, name2: m2, name1 + name2: m3}
		s := sortedUnique(Snapshot{{name1, m}, {name2, m2}, {name1 + name2, m3}})

		want, err := json.Marshal(ref)
		if err != nil {
			return
		}
		legacy := make(map[string]legacyMetric, len(ref))
		for name, m := range ref {
			legacy[name] = legacyMetric(m)
			if got, ok := s.Get(name); !ok || !identical(got, m) {
				t.Fatalf("Get(%q) = %+v, %v, want %+v", name, got, ok, m)
			}
		}
		if len(s) != len(ref) {
			t.Fatalf("snapshot holds %d entries for %d names", len(s), len(ref))
		}
		// Longer than both names, and one byte past their concatenation.
		absent := name1 + name2 + "\x00"
		if _, ok := s.Get(absent); ok {
			t.Fatalf("Get(%q) found a metric the snapshot does not hold", absent)
		}
		if ref, err := json.Marshal(legacy); err == nil && !bytes.Equal(want, ref) {
			t.Fatalf("Metric.MarshalJSON diverged from the legacy encoder:\n got %s\nwant %s", want, ref)
		}
		var streamed bytes.Buffer
		if err := s.WriteCompactJSON(&streamed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("WriteCompactJSON:\n got %s\nwant %s", streamed.Bytes(), want)
		}
		if got, err := s.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Snapshot.MarshalJSON = %s, %v\nwant %s", got, err, want)
		}
		if got, err := json.Marshal(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal(Snapshot) = %s, %v\nwant %s", got, err, want)
		}
		var read Snapshot
		if err := json.Unmarshal(want, &read); err != nil {
			t.Fatalf("UnmarshalJSON(%s): %v", want, err)
		}
		var decoded map[string]Metric
		if err := json.Unmarshal(want, &decoded); err != nil {
			t.Fatal(err)
		}
		if wantRead := sortedOf(decoded); !slices.Equal(read, wantRead) {
			t.Fatalf("UnmarshalJSON(%s) = %+v\nencoding/json decodes %+v", want, read, wantRead)
		}
		var pretty, legacyPretty bytes.Buffer
		if err := s.WriteJSON(&pretty); err != nil {
			t.Fatal(err)
		}
		// The pretty file writes every non-zero field and the compact
		// bytes the active ones, so only names and types must agree.
		var gotTypes, wantTypes map[string]struct{ Type string }
		if err := json.Unmarshal(pretty.Bytes(), &gotTypes); err != nil {
			t.Fatalf("WriteJSON wrote invalid JSON: %v\n%s", err, pretty.Bytes())
		}
		if err := json.Unmarshal(want, &wantTypes); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(gotTypes, wantTypes) {
			t.Fatalf("WriteJSON decodes to %v, the compact bytes to %v", gotTypes, wantTypes)
		}
		if printableASCII(name1, name2, m.Type, m2.Type) {
			legacyWriteJSON(s, &legacyPretty)
			if !bytes.Equal(pretty.Bytes(), legacyPretty.Bytes()) {
				t.Fatalf("WriteJSON:\n got %s\nwant %s", pretty.Bytes(), legacyPretty.Bytes())
			}
		}

		// What encoding/json gives back for each name: itself, unless
		// it holds invalid UTF-8.
		back := func(name string) string {
			var s string
			q, _ := json.Marshal(name)
			if err := json.Unmarshal(q, &s); err != nil {
				t.Fatal(err)
			}
			return s
		}
		n1, n2 := back(name1), back(name2)
		series := &SeriesData{IntervalCycles: 1, Columns: []string{name1, name2}, Times: []uint64{0}, Values: []float64{value, mean}}
		var sj bytes.Buffer
		if err := series.WriteJSON(&sj); err != nil {
			t.Fatal(err)
		}
		var sdoc struct{ Columns []string }
		if err := json.Unmarshal(sj.Bytes(), &sdoc); err != nil {
			t.Fatalf("series WriteJSON wrote invalid JSON: %v\n%s", err, sj.Bytes())
		}
		if !slices.Equal(sdoc.Columns, []string{n1, n2}) {
			t.Fatalf("series columns decode to %q, want %q", sdoc.Columns, []string{n1, n2})
		}

		var tj bytes.Buffer
		tr := NewTracer(&tj, 1)
		tr.SetTrackName(PidCores, 1, name1)
		tr.Complete(PidCores, 1, name1, name2, 0, 4000, []Arg{{name2, value}})
		tr.Counter(PidLinks, name2, 4000, []Arg{{name1, mean}})
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var tdoc traceDoc
		if err := json.Unmarshal(tj.Bytes(), &tdoc); err != nil {
			t.Fatalf("tracer wrote invalid JSON: %v\n%s", err, tj.Bytes())
		}
		var track, x, c *traceEvent
		for i := range tdoc.TraceEvents {
			switch ev := &tdoc.TraceEvents[i]; {
			case ev.Ph == "M" && ev.Name == "thread_name":
				track = ev
			case ev.Ph == "X":
				x = ev
			case ev.Ph == "C":
				c = ev
			}
		}
		if track == nil || track.Args["name"] != n1 {
			t.Fatalf("track name decodes to %v, want %q", track, n1)
		}
		if x == nil || x.Name != n1 || x.Cat != n2 || x.Args[n2] == nil {
			t.Fatalf("complete event decodes to %+v, want name %q, category and arg %q", x, n1, n2)
		}
		if c == nil || c.Name != n2 || c.Args[n1] == nil {
			t.Fatalf("counter event decodes to %+v, want name %q and series %q", c, n2, n1)
		}
	})
}

// printableASCII reports whether every byte of every string is in
// ' '..'~'.
func printableASCII(ss ...string) bool {
	for _, s := range ss {
		for i := 0; i < len(s); i++ {
			if s[i] < 0x20 || s[i] > 0x7e {
				return false
			}
		}
	}
	return true
}

// identical reports whether a and b hold the same type and the same
// bits in every field, NaN included.
func identical(a, b Metric) bool {
	fa, fb := a.floats(), b.floats()
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Type == b.Type && a.Count == b.Count
}

// sortedOf returns m's metrics as a snapshot, nil for a nil map.
func sortedOf(m map[string]Metric) Snapshot {
	if m == nil {
		return nil
	}
	s := Snapshot{}
	for name, m := range m {
		s = append(s, Entry{name, m})
	}
	slices.SortFunc(s, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// mapOf returns s's metrics as a map, nil for a nil snapshot.
func mapOf(s Snapshot) map[string]Metric {
	if s == nil {
		return nil
	}
	m := make(map[string]Metric, len(s))
	for _, e := range s {
		m[e.Name] = e.Metric
	}
	return m
}

// TestSnapshotJSONEdges pins the writer's and the reader's edge cases
// outside the fuzz target's generator: a nil snapshot, an empty one,
// and an encoding longer than the writer's flush threshold must round
// trip, nil as null and empty as {}; a snapshot out of name order or
// with a repeated name must fail to encode; and UnmarshalJSON must
// refuse anything but one JSON object or null.
func TestSnapshotJSONEdges(t *testing.T) {
	var big Snapshot
	for i := range 3000 {
		big = append(big, Entry{fmt.Sprintf("net.link.%04d->%04d.B.flits", i, i+1), Metric{Type: "counter", Count: uint64(i)}})
	}
	for _, c := range []struct {
		name string
		s    Snapshot
	}{{"nil", nil}, {"empty", Snapshot{}}, {"big", big}} {
		want, err := json.Marshal(mapOf(c.s))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.s.WriteCompactJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteCompactJSON wrote %d bytes, want json.Marshal's %d", c.name, got.Len(), len(want))
		}
		var back Snapshot
		if err := json.Unmarshal(want, &back); err != nil || !slices.Equal(back, c.s) || (back == nil) != (c.s == nil) {
			t.Errorf("%s: UnmarshalJSON gave %d entries (nil %v), %v", c.name, len(back), back == nil, err)
		}
		var pretty, legacy bytes.Buffer
		if err := c.s.WriteJSON(&pretty); err != nil {
			t.Fatal(err)
		}
		legacyWriteJSON(c.s, &legacy)
		if !bytes.Equal(pretty.Bytes(), legacy.Bytes()) {
			t.Errorf("%s: WriteJSON differs from the legacy pretty file", c.name)
		}
	}

	a, b := Entry{"a", Metric{Type: "counter"}}, Entry{"b", Metric{Type: "gauge"}}
	for _, bad := range []Snapshot{{b, a}, {a, a}} {
		if err := bad.WriteCompactJSON(io.Discard); err == nil {
			t.Errorf("WriteCompactJSON of %v succeeded", bad)
		}
		if err := bad.WriteJSON(io.Discard); err == nil {
			t.Errorf("WriteJSON of %v succeeded", bad)
		}
	}
	for _, data := range []string{`[]`, `"a"`, `{"a":{"type":"counter"}} {}`, `{"a":1}`, `{"a":{}`} {
		var s Snapshot
		if err := s.UnmarshalJSON([]byte(data)); err == nil {
			t.Errorf("UnmarshalJSON(%s) = %v, want an error", data, s)
		}
	}
}
