package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// traceDoc mirrors the Chrome trace-event JSON array format.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	ID   string         `json:"id"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func buildTrace(t *testing.T, emit func(*Tracer)) (traceDoc, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf, 1)
	emit(tr)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc, buf.Bytes()
}

func findEvent(doc traceDoc, ph, name string) *traceEvent {
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Ph == ph && doc.TraceEvents[i].Name == name {
			return &doc.TraceEvents[i]
		}
	}
	return nil
}

func TestTracerDocumentShape(t *testing.T) {
	doc, _ := buildTrace(t, func(tr *Tracer) {
		tr.SetTrackName(PidCores, 3, "tile03")
		tr.Complete(PidCores, 3, "miss", "l1", 4000, 8000, []Arg{{"addr", 64}})
		tr.Begin(PidMessages, 1, "req", "msg", 0)
		tr.End(PidMessages, 1, "req", "msg", 12000, []Arg{{"hops", 2}})
		tr.Instant(PidCores, 3, "evict", "l1", 4000)
		tr.Counter(PidLinks, "occupancy", 8000, []Arg{{"VL", 3}, {"B", 1}})
	})

	if doc.DisplayUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayUnit)
	}

	// Process metadata for all three processes came from NewTracer.
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"].(string)
		}
	}
	if procs[PidCores] != "cores" || procs[PidLinks] != "links" || procs[PidMessages] != "messages" {
		t.Errorf("process names = %v", procs)
	}

	// Timestamps convert cycles -> microseconds of 4 GHz time.
	x := findEvent(doc, "X", "miss")
	if x == nil {
		t.Fatal("no complete event")
	}
	if x.Ts != 1 || x.Dur != 2 {
		t.Errorf("complete ts,dur = %v,%v µs; want 1,2 (4000 and 8000 cycles)", x.Ts, x.Dur)
	}
	if x.Args["addr"] != float64(64) {
		t.Errorf("complete args = %v", x.Args)
	}

	// Async begin/end share an id so Perfetto pairs them.
	b, e := findEvent(doc, "b", "req"), findEvent(doc, "e", "req")
	if b == nil || e == nil {
		t.Fatal("missing async span events")
	}
	if b.ID == "" || b.ID != e.ID {
		t.Errorf("async ids: begin %q, end %q", b.ID, e.ID)
	}
	if e.Args["hops"] != float64(2) {
		t.Errorf("end args = %v", e.Args)
	}

	if findEvent(doc, "i", "evict") == nil {
		t.Error("missing instant event")
	}
	c := findEvent(doc, "C", "occupancy")
	if c == nil {
		t.Fatal("missing counter event")
	}
	if c.Args["VL"] != float64(3) || c.Args["B"] != float64(1) {
		t.Errorf("counter series = %v", c.Args)
	}
}

func TestTracerTrackMetadataOnce(t *testing.T) {
	doc, _ := buildTrace(t, func(tr *Tracer) {
		for i := 0; i < 5; i++ {
			tr.SetTrackName(PidCores, 7, "tile07")
		}
	})
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == 7 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("thread_name emitted %d times, want 1", n)
	}
}

func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 3)
	sampled := 0
	for i := 0; i < 30; i++ {
		if _, ok := tr.NextID(); ok {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 30 with stride 3, want 10", sampled)
	}
	// Ids stay unique even when unsampled.
	id1, _ := tr.NextID()
	id2, _ := tr.NextID()
	if id1 == id2 {
		t.Fatal("NextID repeated an id")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Stride < 1 clamps to trace-everything.
	tr2 := NewTracer(&bytes.Buffer{}, 0)
	if _, ok := tr2.NextID(); !ok {
		t.Fatal("stride 0 should sample every span")
	}
	tr2.Close()
}

func TestTracerDeterministicBytes(t *testing.T) {
	emit := func(tr *Tracer) {
		tr.SetTrackName(PidLinks, 4, "00->01.VL")
		tr.Complete(PidLinks, 4, "flit", "net", 123, 7, []Arg{{"plane", 0}, {"bytes", 11}})
		id, _ := tr.NextID()
		tr.Begin(PidMessages, id, "m", "msg", 5)
		tr.End(PidMessages, id, "m", "msg", 55, nil)
	}
	_, a := buildTrace(t, emit)
	_, b := buildTrace(t, emit)
	if !bytes.Equal(a, b) {
		t.Error("identical event sequences produced different bytes")
	}
}

// failWriter errors after the first n bytes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

func TestTracerWriteErrorSurfacesAtClose(t *testing.T) {
	tr := NewTracer(&failWriter{n: 16}, 1)
	// Emit well past the 64 KiB buffer so the flush fails mid-run;
	// hook calls must keep being safe no-ops afterwards.
	for i := 0; i < 5000; i++ {
		tr.Complete(PidCores, 0, "ev", "cat", uint64(i), 1, nil)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close did not surface the write error")
	}
}
