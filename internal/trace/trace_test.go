package trace

import (
	"fmt"
	"strings"
	"testing"

	"tilesim/internal/workload"
)

func sample() *Trace {
	t := New(2)
	t.Append(0, workload.Op{Kind: workload.OpLoad, Addr: 0x1000})
	t.Append(0, workload.Op{Kind: workload.OpCompute, Cycles: 7})
	t.Append(0, workload.Op{Kind: workload.OpStore, Addr: 0x1040})
	t.Append(1, workload.Op{Kind: workload.OpBarrier})
	t.Append(1, workload.Op{Kind: workload.OpLoad, Addr: 0x1000})
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sample()
	var b strings.Builder
	if err := orig.Encode(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(strings.NewReader(b.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cores := got.Summarize().Cores; cores != 2 || got.Len() != orig.Len() {
		t.Fatalf("decoded %d cores / %d ops", cores, got.Len())
	}
	for core := 0; core < 2; core++ {
		for {
			wantOp, wantOK := orig.Next(core)
			gotOp, gotOK := got.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d stream lengths differ", core)
			}
			if !wantOK {
				break
			}
			if wantOp != gotOp {
				t.Fatalf("core %d: %+v != %+v", core, gotOp, wantOp)
			}
		}
	}
}

func TestReplayImplementsGenerator(t *testing.T) {
	var _ workload.Generator = New(1)
	tr := sample()
	n := 0
	for {
		if _, ok := tr.Next(0); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("core 0 replayed %d ops", n)
	}
	tr.Reset()
	if _, ok := tr.Next(0); !ok {
		t.Fatal("reset did not rewind")
	}
}

func TestCaptureFromWorkload(t *testing.T) {
	gen, err := workload.NewNamedApp("FFT", 16, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(gen, 16)
	if tr.Len() == 0 {
		t.Fatal("empty capture")
	}
	s := tr.Summarize()
	if s.Loads+s.Stores != 16*50 {
		t.Fatalf("captured %d refs, want %d", s.Loads+s.Stores, 16*50)
	}
	if s.Blocks == 0 || s.SharedPct <= 0 {
		t.Fatalf("summary looks empty: %+v", s)
	}
	// Captured trace replays identically to a fresh generator.
	gen.Reset()
	for core := 0; core < 16; core++ {
		for {
			want, wantOK := gen.Next(core)
			got, gotOK := tr.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d: stream length mismatch", core)
			}
			if !wantOK {
				break
			}
			if want != got {
				t.Fatalf("core %d: %+v != %+v", core, got, want)
			}
		}
	}
}

// TestSummarizeHandBuilt pins the whole Summary of a 2-core trace: block
// 0x1000 is touched by both cores (at two offsets on core 1), 0x2000
// only by core 0 (twice) and 0x3000 only by core 1, so one block of
// three is shared.
func TestSummarizeHandBuilt(t *testing.T) {
	tr := New(2)
	tr.Append(0, workload.Op{Kind: workload.OpLoad, Addr: 0x1000})
	tr.Append(0, workload.Op{Kind: workload.OpStore, Addr: 0x2000})
	tr.Append(0, workload.Op{Kind: workload.OpCompute, Cycles: 5})
	tr.Append(0, workload.Op{Kind: workload.OpLoad, Addr: 0x2008})
	tr.Append(0, workload.Op{Kind: workload.OpBarrier})
	tr.Append(1, workload.Op{Kind: workload.OpStore, Addr: 0x1010})
	tr.Append(1, workload.Op{Kind: workload.OpLoad, Addr: 0x3000})
	tr.Append(1, workload.Op{Kind: workload.OpLoad, Addr: 0x103f})
	tr.Append(1, workload.Op{Kind: workload.OpBarrier})
	want := Summary{Cores: 2, Loads: 4, Stores: 2, Computes: 1, Barriers: 2, Blocks: 3, SharedPct: 100.0 / 3}
	if got := tr.Summarize(); got != want {
		t.Fatalf("Summarize() = %+v, want %+v", got, want)
	}
}

// TestRoundTripInterleavedWithComments decodes a file whose core
// streams interleave arbitrarily between comment lines, re-encodes it,
// and parses the result again: per-core op order must survive both
// directions, and re-encoding the re-parsed trace must be
// byte-identical (the format is canonical).
func TestRoundTripInterleavedWithComments(t *testing.T) {
	in := strings.Join([]string{
		"# interleaved capture",
		"1 L 2000",
		"0 L 1000",
		"# core 0 computes while core 1 stores",
		"0 C 5",
		"1 S 2040",
		"2 B",
		"0 S 1040",
		"# trailing comment",
		"1 B",
	}, "\n") + "\n"
	first, err := Decode(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cores := first.Summarize().Cores; cores != 3 || first.Len() != 7 {
		t.Fatalf("decoded %d cores / %d ops, want 3 / 7", cores, first.Len())
	}

	var enc1 strings.Builder
	if err := first.Encode(&enc1); err != nil {
		t.Fatal(err)
	}
	second, err := Decode(strings.NewReader(enc1.String()), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Per-core order from the interleaved file is preserved through
	// write → parse.
	want := map[int][]workload.Op{
		0: {
			{Kind: workload.OpLoad, Addr: 0x1000},
			{Kind: workload.OpCompute, Cycles: 5},
			{Kind: workload.OpStore, Addr: 0x1040},
		},
		1: {
			{Kind: workload.OpLoad, Addr: 0x2000},
			{Kind: workload.OpStore, Addr: 0x2040},
			{Kind: workload.OpBarrier},
		},
		2: {{Kind: workload.OpBarrier}},
	}
	for core, ops := range want {
		for i, w := range ops {
			got, ok := second.Next(core)
			if !ok {
				t.Fatalf("core %d: stream ended at op %d", core, i)
			}
			if got != w {
				t.Fatalf("core %d op %d: %+v, want %+v", core, i, got, w)
			}
		}
		if _, ok := second.Next(core); ok {
			t.Fatalf("core %d: stream longer than recorded", core)
		}
	}

	var enc2 strings.Builder
	if err := second.Encode(&enc2); err != nil {
		t.Fatal(err)
	}
	if enc1.String() != enc2.String() {
		t.Fatal("re-encoding a round-tripped trace changed the bytes")
	}
}

// TestRecordWriteParseReplay exercises the full chain the replay
// front-end relies on: capture a real generator, write the text
// format, parse it back, and replay — every core's op stream must be
// identical to a fresh generator's.
func TestRecordWriteParseReplay(t *testing.T) {
	gen, err := workload.NewNamedApp("MP3D", 16, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	recorded := Capture(gen, 16)

	var b strings.Builder
	if err := recorded.Encode(&b); err != nil {
		t.Fatal(err)
	}
	replayed, err := Decode(strings.NewReader(b.String()), 16)
	if err != nil {
		t.Fatal(err)
	}

	gen.Reset()
	for core := 0; core < 16; core++ {
		n := 0
		for {
			want, wantOK := gen.Next(core)
			got, gotOK := replayed.Next(core)
			if wantOK != gotOK {
				t.Fatalf("core %d: stream length diverges after %d ops", core, n)
			}
			if !wantOK {
				break
			}
			if want != got {
				t.Fatalf("core %d op %d: replayed %+v, want %+v", core, n, got, want)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("core %d: empty stream", core)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"x L 40",          // bad core
		"0 L",             // missing addr
		"0 L zz",          // bad addr
		"0 C",             // missing cycles
		"0 C -1",          // negative cycles
		"0 Q",             // unknown op
		"0",               // short line
		"0 B junk",        // barrier with an operand
		"1099511627776 B", // core id that would size 2^40 streams
		"1024 L 40",       // first core id past the largest system
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c), 0); err == nil {
			t.Errorf("line %q accepted", c)
		}
	}
	// The largest core id is accepted.
	if tr, err := Decode(strings.NewReader("1023 B\n"), 0); err != nil || tr.Summarize().Cores != 1024 {
		t.Errorf("core 1023: %v", err)
	}
	// A line longer than the scanner's buffer names its line.
	long := "0 B\n0 L " + strings.Repeat("4", 1<<20) + "\n"
	if _, err := Decode(strings.NewReader(long), 0); err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Errorf("over-long line: error %v, want one naming line 2", err)
	}
	// Forced core count below the max seen.
	if _, err := Decode(strings.NewReader("5 B\n"), 2); err == nil {
		t.Error("core 5 accepted with forced count 2")
	}
	// Empty trace without a core count.
	if _, err := Decode(strings.NewReader("# nothing\n"), 0); err == nil {
		t.Error("empty trace without core count accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "# header\n\n0 L 40\n  \n# more\n1 B\n"
	tr, err := Decode(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cores := tr.Summarize().Cores; tr.Len() != 2 || cores != 2 {
		t.Fatalf("decoded %d ops / %d cores", tr.Len(), cores)
	}
}

// capture records a 16-core synthetic application.
func capture(t *testing.T, app string, refs int) *Trace {
	t.Helper()
	gen, err := workload.NewNamedApp(app, 16, refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Capture(gen, 16)
}

// withoutOp returns stream minus its first op of the given kind.
func withoutOp(stream []workload.Op, kind workload.OpKind) []workload.Op {
	for i, op := range stream {
		if op.Kind == kind {
			return append(stream[:i:i], stream[i+1:]...)
		}
	}
	return stream
}

func TestCheckReplayAcceptsCaptures(t *testing.T) {
	for _, c := range []struct {
		app          string
		refs, warmup int
	}{
		{"FFT", 200, 0},
		{"FFT", 200, 100},
		{"MP3D", 100, 50},
	} {
		if err := capture(t, c.app, c.refs).CheckReplay(c.warmup); err != nil {
			t.Errorf("%s at warmup %d: %v", c.app, c.warmup, err)
		}
	}
}

// A core's compute cycles past maxReplayCompute would overflow the
// replay's cycle clock. Replayed unchecked, the three-line trace panics
// with an event scheduled in the past, and the one-line trace "runs"
// for 9.2e18 cycles.
func TestCheckReplayRejectsClockOverflow(t *testing.T) {
	loads := "0 L 40\n1 L 80\n2 L c0\n3 L 100\n"
	huge := "0 C 9223372036854775807\n"
	for _, text := range []string{strings.Repeat(huge, 3) + loads, huge + loads} {
		tr, err := Decode(strings.NewReader(text), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := "core 0 computes for at least 9223372036854775807 cycles"
		if err := tr.CheckReplay(0); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckReplay(0) of %q = %v, want an error containing %q", text, err, want)
		}
	}
	// Exactly maxReplayCompute, split over lines and cores, replays.
	ok := fmt.Sprintf("0 C %d\n0 C %d\n1 C %d\n", maxReplayCompute/2, maxReplayCompute/2, maxReplayCompute)
	tr, err := Decode(strings.NewReader(ok+"0 L 40\n1 L 80\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckReplay(1); err != nil {
		t.Errorf("compute of exactly maxReplayCompute rejected: %v", err)
	}
}

// Each case breaks one rule of CheckReplay. Replayed unchecked, each
// trace deadlocks: the run ends in "core 0 did not finish (deadlock?)".
func TestCheckReplayRejectsDeadlocks(t *testing.T) {
	cutRefs := capture(t, "MP3D", 100)
	cutRefs.ops[15] = cutRefs.ops[15][:5]

	dropBarrier := capture(t, "FFT", 200)
	dropBarrier.ops[3] = withoutOp(dropBarrier.ops[3], workload.OpBarrier)

	// FFT cores pass a barrier after every 50 references. Core 3's
	// first barrier moves to the end of its stream: the barrier count
	// stays, but core 3 reaches reference 60 a phase before the others.
	earlyWarmup := capture(t, "FFT", 200)
	earlyWarmup.ops[3] = append(withoutOp(earlyWarmup.ops[3], workload.OpBarrier),
		workload.Op{Kind: workload.OpBarrier})

	for _, c := range []struct {
		name   string
		tr     *Trace
		warmup int
		want   string
	}{
		{"too few references", cutRefs, 50, "core 15 has 5 references, fewer than the warmup of 50"},
		{"barrier counts differ", dropBarrier, 0, "core 3 has 3 barriers, core 0 has 4"},
		{"warmup phases differ", earlyWarmup, 60, "core 3 reaches its warmup reference 60 after 0 barriers, core 0 after 1"},
	} {
		err := c.tr.CheckReplay(c.warmup)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckReplay(%d) = %v, want an error containing %q", c.name, c.warmup, err, c.want)
		}
	}
}
