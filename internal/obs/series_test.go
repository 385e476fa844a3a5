package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// driveSeries runs a fixed workload against a fresh series: a counter
// incremented by 3 every 10 cycles at 3,13,...,93 (offset so no event
// ever ties a sample boundary — tie order depends on schedule seq),
// sampled every 25 cycles.
func driveSeries(t *testing.T) *SeriesData {
	t.Helper()
	k := sim.NewKernel()
	var flits stats.Counter
	var live int
	var chain func()
	chain = func() {
		flits.Add(3)
		live = int(k.Now() / 10)
		if k.Now() < 93 {
			k.Schedule(10, chain)
		}
	}
	k.Schedule(3, chain)

	s := NewSeries(25)
	s.Delta("net.flits", flits.Value)
	s.Level("coh.mshr_live", func() float64 { return float64(live) })
	s.Utilization("net.link_util", flits.Value)
	s.DeltaRatio("compress.ratio", flits.Value, func() uint64 { return flits.Value() * 2 })
	data := s.Start(NewPollers(k))
	k.Run(nil)
	return data
}

func TestSeriesSampling(t *testing.T) {
	d := driveSeries(t)

	wantCols := []string{"coh.mshr_live", "compress.ratio", "net.flits", "net.link_util"}
	if len(d.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", d.Columns, wantCols)
	}
	for i := range wantCols {
		if d.Columns[i] != wantCols[i] {
			t.Fatalf("columns = %v, want sorted %v", d.Columns, wantCols)
		}
	}

	// Workload events at 3,13,...,93 (10 events, 3 flits each); samples
	// at 0 (baseline), 25, 50, 75, 100. The poll at 100 sees an empty
	// queue (last event at 93) and stops — the trailing window captures
	// the final partial-window activity.
	wantTimes := []uint64{0, 25, 50, 75, 100}
	if d.Rows() != len(wantTimes) {
		t.Fatalf("rows = %d (times %v), want %v", d.Rows(), d.Times, wantTimes)
	}
	for i, w := range wantTimes {
		if d.Times[i] != w {
			t.Fatalf("times = %v, want %v", d.Times, wantTimes)
		}
	}

	col := func(name string) int {
		for i, c := range d.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}

	// Baseline row: the sample fires at schedule time, before any
	// simulation event runs, so every counter reads 0.
	base := d.Row(0)
	for i, v := range base {
		if v != 0 {
			t.Fatalf("baseline row non-zero at %s: %v", d.Columns[i], base)
		}
	}

	// Per-window flit deltas: (0,25] has events 3,13,23 → 9; (25,50]
	// has 33,43 → 6; (50,75] has 53,63,73 → 9; (75,100] has 83,93 → 6.
	wantDeltas := []float64{0, 9, 6, 9, 6}
	for i, w := range wantDeltas {
		if got := d.Row(i)[col("net.flits")]; got != w {
			t.Errorf("window-%d flit delta = %v, want %v", i, got, w)
		}
	}
	// Level samples the instantaneous value at the boundary: at cycle 75
	// the last event was at 73, so live = 7.
	if got := d.Row(3)[col("coh.mshr_live")]; got != 7 {
		t.Errorf("level at 75 = %v, want 7", got)
	}
	// Utilization: 9 busy cycles over a 25-cycle window.
	r1 := d.Row(1)
	if got := r1[col("net.link_util")]; got != 9.0/25.0 {
		t.Errorf("utilization = %v, want 0.36", got)
	}
	// DeltaRatio: numerator delta / denominator delta = 9/18 = 0.5 in
	// every active window (the denominator tracks 2× the numerator).
	if got := r1[col("compress.ratio")]; got != 0.5 {
		t.Errorf("delta ratio = %v, want 0.5", got)
	}
}

func TestSeriesByteDeterminism(t *testing.T) {
	d1, d2 := driveSeries(t), driveSeries(t)
	var csv1, csv2, js1, js2 bytes.Buffer
	if err := d1.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("two same-seed series CSVs differ")
	}
	if err := d1.WriteJSON(&js1); err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
		t.Error("two same-seed series JSONs differ")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	d := driveSeries(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "cycle,coh.mshr_live,compress.ratio,net.flits,net.link_util" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+d.Rows() {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+d.Rows())
	}
	if lines[1] != "0,0,0,0,0" {
		t.Errorf("baseline row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "25,") {
		t.Errorf("second row = %q, want cycle 25", lines[2])
	}
}

func TestSeriesWriteJSONValid(t *testing.T) {
	d := driveSeries(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		IntervalCycles uint64   `json:"interval_cycles"`
		Columns        []string `json:"columns"`
		Rows           []struct {
			Cycle  uint64    `json:"cycle"`
			Values []float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if parsed.IntervalCycles != 25 {
		t.Errorf("interval = %d, want 25", parsed.IntervalCycles)
	}
	if len(parsed.Rows) != d.Rows() {
		t.Errorf("rows = %d, want %d", len(parsed.Rows), d.Rows())
	}
	for i, row := range parsed.Rows {
		if row.Cycle != d.Times[i] || len(row.Values) != len(d.Columns) {
			t.Fatalf("row %d = %+v, want cycle %d with %d values", i, row, d.Times[i], len(d.Columns))
		}
	}
}

func TestSeriesEmptyJSON(t *testing.T) {
	d := &SeriesData{IntervalCycles: 10}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty series JSON invalid: %v\n%s", err, buf.String())
	}
}

func TestSeriesRegistrationPanics(t *testing.T) {
	expectPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic = %q, want mention of %q", name, msg, want)
			}
		}()
		fn()
	}

	expectPanic("dup", "duplicate series column", func() {
		s := NewSeries(10)
		s.Delta("x", func() uint64 { return 0 })
		s.Delta("x", func() uint64 { return 0 })
	})
	expectPanic("nil delta", "nil sampler", func() {
		NewSeries(10).Delta("x", nil)
	})
	expectPanic("nil level", "nil sampler", func() {
		NewSeries(10).Level("x", nil)
	})
	expectPanic("nil util", "nil sampler", func() {
		NewSeries(10).Utilization("x", nil)
	})
	expectPanic("nil ratio den", "nil sampler", func() {
		NewSeries(10).DeltaRatio("x", func() uint64 { return 0 }, nil)
	})
	expectPanic("post-start", "after Start", func() {
		k := sim.NewKernel()
		s := NewSeries(10)
		s.Delta("x", func() uint64 { return 0 })
		s.Start(NewPollers(k))
		s.Delta("y", func() uint64 { return 0 })
	})
	expectPanic("double start", "started twice", func() {
		k := sim.NewKernel()
		s := NewSeries(10)
		s.Start(NewPollers(k))
		s.Start(NewPollers(k))
	})
}

func TestSeriesZeroIntervalClamps(t *testing.T) {
	if s := NewSeries(0); s.interval != 1 {
		t.Fatalf("interval = %d, want clamp to 1", s.interval)
	}
}

// finishSeries builds the driveSeries workload plus an optional far
// trailing no-op event (so the poller keeps sampling past the last real
// event, producing several beyond-end rows) and returns the live Series
// for Finish-level tests.
func finishSeries(t *testing.T, trailingEvent sim.Time) (*sim.Kernel, *Series, *SeriesData) {
	t.Helper()
	k := sim.NewKernel()
	var flits stats.Counter
	var live int
	var chain func()
	chain = func() {
		flits.Add(3)
		live = int(k.Now() / 10)
		if k.Now() < 93 {
			k.Schedule(10, chain)
		}
	}
	k.Schedule(3, chain)
	if trailingEvent > 0 {
		k.ScheduleAt(trailingEvent, func() {})
	}

	s := NewSeries(25)
	s.Delta("net.flits", flits.Value)
	s.Level("coh.mshr_live", func() float64 { return float64(live) })
	s.Utilization("net.link_util", flits.Value)
	s.DeltaRatio("compress.ratio", flits.Value, func() uint64 { return flits.Value() * 2 })
	data := s.Start(NewPollers(k))
	k.Run(nil)
	return k, s, data
}

// TestSeriesFinishPartialEpoch drives a run whose end (cycle 93) the
// 25-cycle grid does not divide: Finish must replace the beyond-end row
// the trailing poll sampled at 100 with a partial epoch stamped at 93,
// and every delta column must sum to its counter's end-of-run total.
func TestSeriesFinishPartialEpoch(t *testing.T) {
	_, s, d := finishSeries(t, 0)
	s.Finish(93)

	wantTimes := []uint64{0, 25, 50, 75, 93}
	if d.Rows() != len(wantTimes) {
		t.Fatalf("rows = %d (times %v), want %v", d.Rows(), d.Times, wantTimes)
	}
	for i, w := range wantTimes {
		if d.Times[i] != w {
			t.Fatalf("times = %v, want %v", d.Times, wantTimes)
		}
	}
	col := func(name string) int {
		for i, c := range d.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	// The final partial window (75,93] carries the events at 83 and 93,
	// and the delta column sums to the counter's total (10 events x 3).
	last := d.Row(d.Rows() - 1)
	if got := last[col("net.flits")]; got != 6 {
		t.Errorf("final partial flit delta = %v, want 6", got)
	}
	var sum float64
	for i := 0; i < d.Rows(); i++ {
		sum += d.Row(i)[col("net.flits")]
	}
	if sum != 30 {
		t.Errorf("finished delta column sums to %v, want the counter total 30", sum)
	}
	// Utilization divides by the partial width (18 cycles), and the
	// level reads the end-of-run value.
	if got := last[col("net.link_util")]; got != 6.0/18.0 {
		t.Errorf("final partial utilization = %v, want %v", got, 6.0/18.0)
	}
	if got := last[col("coh.mshr_live")]; got != 9 {
		t.Errorf("final level = %v, want 9", got)
	}
	if got := last[col("compress.ratio")]; got != 0.5 {
		t.Errorf("final delta ratio = %v, want 0.5", got)
	}
}

// TestSeriesFinishRewindsTrailingRows plants a far no-op event so the
// poller emits many beyond-end rows (100, 125, ..., past 260); Finish
// must drop them all and still fold every increment since the last kept
// full epoch into the one partial row — the multi-row rewind path.
func TestSeriesFinishRewindsTrailingRows(t *testing.T) {
	_, s, d := finishSeries(t, 260)
	if d.Rows() < 7 {
		t.Fatalf("trailing event produced only %d rows; want several beyond-end rows", d.Rows())
	}
	s.Finish(93)
	if got := d.Times[d.Rows()-1]; got != 93 {
		t.Fatalf("last row at %d, want the end cycle 93 (times %v)", got, d.Times)
	}
	col := 0
	for i, c := range d.Columns {
		if c == "net.flits" {
			col = i
		}
	}
	var sum float64
	for i := 0; i < d.Rows(); i++ {
		sum += d.Row(i)[col]
	}
	if sum != 30 {
		t.Errorf("rewound delta column sums to %v, want 30", sum)
	}
}

// TestSeriesFinishExactGridNoop: when the grid divides the run exactly
// the table is left untouched — no empty partial row is appended.
func TestSeriesFinishExactGridNoop(t *testing.T) {
	_, s, d := finishSeries(t, 0)
	before := len(d.Times)
	s.Finish(100) // the trailing poll landed exactly on the grid
	if len(d.Times) != before || d.Times[len(d.Times)-1] != 100 {
		t.Fatalf("exact-grid Finish changed the table: times %v", d.Times)
	}
}

func TestSeriesFinishPanics(t *testing.T) {
	expectPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic = %q, want mention of %q", name, msg, want)
			}
		}()
		fn()
	}
	expectPanic("before start", "before Start", func() {
		NewSeries(10).Finish(5)
	})
	expectPanic("double finish", "finished twice", func() {
		_, s, _ := finishSeries(t, 0)
		s.Finish(93)
		s.Finish(93)
	})
}
