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
	"testing"

	"tilesim/internal/stats"
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
	for i, name := range stats.SortedKeys(s) {
		m := s[name]
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
// values and requires every encoding of it to match its reference: the
// streamed compact writer, Snapshot.MarshalJSON and json.Marshal of the
// snapshot must write the bytes encoding/json's own map encoder writes
// for map[string]Metric, which must in turn equal that encoder's bytes
// over the legacy Metric.MarshalJSON. WriteJSON must decode with
// encoding/json to the names and types the compact bytes decode to,
// and write the legacy pretty file whenever every name and type is
// printable ASCII. A series with the two names as columns and a trace
// with them as track, event, category and arg names must decode and
// give the names back. The seed corpus is
// testdata/fuzz/FuzzSnapshotJSON.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("net.link.00->01.B.flits", "a&b", byte(0), uint64(0), 0.0, -1.5, 1e21, 1e-7, 2.5, -0.0)
	f.Fuzz(func(t *testing.T, name1, name2 string, typ byte, count uint64,
		value, mean, min, max, p50, p99 float64) {
		m := Metric{Type: fuzzTypes[int(typ)%len(fuzzTypes)], Count: count,
			Value: value, Mean: mean, Min: min, Max: max, P50: p50, P99: p99}
		// A second metric of the next type with the fields rotated.
		m2 := Metric{Type: fuzzTypes[(int(typ)+1)%len(fuzzTypes)], Count: count / 3,
			Value: p99, Mean: value, Min: mean, Max: min, P50: max, P99: p50}
		s := Snapshot{name1: m, name2: m2, name1 + name2: {Type: m.Type}}

		want, err := json.Marshal(map[string]Metric(s))
		if err != nil {
			return
		}
		legacy := make(map[string]legacyMetric, len(s))
		for name, m := range s {
			legacy[name] = legacyMetric(m)
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

// TestSnapshotJSONEdges pins the writer's edge cases outside the fuzz
// target's generator: a nil snapshot, an empty one, and an encoding
// longer than the writer's flush threshold.
func TestSnapshotJSONEdges(t *testing.T) {
	big := Snapshot{}
	for i := range 3000 {
		big[fmt.Sprintf("net.link.%04d->%04d.B.flits", i, i+1)] = Metric{Type: "counter", Count: uint64(i)}
	}
	for name, s := range map[string]Snapshot{"nil": nil, "empty": {}, "big": big} {
		want, err := json.Marshal(map[string]Metric(s))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := s.WriteCompactJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteCompactJSON wrote %d bytes, want json.Marshal's %d", name, got.Len(), len(want))
		}
		var pretty, legacy bytes.Buffer
		if err := s.WriteJSON(&pretty); err != nil {
			t.Fatal(err)
		}
		legacyWriteJSON(s, &legacy)
		if !bytes.Equal(pretty.Bytes(), legacy.Bytes()) {
			t.Errorf("%s: WriteJSON differs from the legacy pretty file", name)
		}
	}
}
