package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"tilesim/internal/sim"
)

// Series samples registered probes on a fixed simulated-time grid and
// accumulates one row per epoch (DESIGN.md §15). Registration is
// cold-path, like Registry: components hand the series closures over
// counters they maintain anyway, and the sampler, one of the system's
// Pollers, reads them out every interval. Columns are sorted by name
// at Start so output is byte-deterministic regardless of registration
// order.
//
// Probe kinds:
//
//   - Delta: a monotone counter, reported as the per-window increment.
//   - Level: an instantaneous value read at the window boundary.
//   - Utilization: a monotone busy-cycle counter, reported as the
//     per-window increment divided by the window length (a 0..1 duty
//     cycle for a resource that can be busy at most once per cycle).
//   - DeltaRatio: two monotone counters, reported as the per-window
//     increment of the numerator divided by that of the denominator
//     (e.g. compressed bits / uncompressed bits for a windowed
//     compression ratio); 0 when the denominator did not move.
//
// Like every obs hook, samplers must only read simulation state — the
// sample event consumes kernel sequence numbers but never changes the
// relative order of real events, so attaching a series shifts no
// simulated outcome (the no-feedback rule, asserted by the cmp series
// tests).
type Series struct {
	interval sim.Time
	columns  []seriesColumn
	// names holds every registered column name until Start, so a
	// duplicate is found without scanning the columns.
	names    map[string]struct{}
	started  bool
	finished bool
	data     *SeriesData
	last     []uint64 // previous raw reading per column (delta kinds)
	lastTime sim.Time
	// raw keeps each row's post-sample counter readings (the s.last
	// state, 2 per column) so Finish can rewind the sampler exactly to
	// any kept row when it drops beyond-end trailing rows. Freed at
	// Finish; without a Finish call it simply mirrors the row count.
	raw []uint64
}

type seriesKind uint8

const (
	kindDelta seriesKind = iota
	kindLevel
	kindUtilization
	kindDeltaRatio
)

type seriesColumn struct {
	name string
	kind seriesKind
	ctr  func() uint64  // delta / utilization / ratio numerator
	den  func() uint64  // ratio denominator
	lvl  func() float64 // level
}

// SeriesData is the accumulated epoch table: one row per sample in
// flat row-major Values (len(Times) × len(Columns)). It is plain data
// — safe to marshal, attach to cached results, and compare across
// runs.
type SeriesData struct {
	IntervalCycles uint64    `json:"interval_cycles"`
	Columns        []string  `json:"columns"`
	Times          []uint64  `json:"cycles"`
	Values         []float64 `json:"values"`
}

// NewSeries returns an empty series sampling every interval cycles
// (clamped to 1, like Pollers.Poll).
func NewSeries(interval sim.Time) *Series {
	if interval == 0 {
		interval = 1
	}
	return &Series{interval: interval, names: make(map[string]struct{})}
}

// register installs a column under a unique name, cold-path only.
func (s *Series) register(c seriesColumn) {
	if s.started {
		panic(fmt.Sprintf("obs: series column %q registered after Start", c.name))
	}
	if _, dup := s.names[c.name]; dup {
		panic(fmt.Sprintf("obs: duplicate series column %q", c.name))
	}
	s.names[c.name] = struct{}{}
	s.columns = append(s.columns, c)
}

// Delta registers a monotone counter sampled as per-window increments.
func (s *Series) Delta(name string, fn func() uint64) {
	if fn == nil {
		panic(fmt.Sprintf("obs: nil sampler for series column %q", name))
	}
	s.register(seriesColumn{name: name, kind: kindDelta, ctr: fn})
}

// Level registers an instantaneous value read at each window boundary.
func (s *Series) Level(name string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("obs: nil sampler for series column %q", name))
	}
	s.register(seriesColumn{name: name, kind: kindLevel, lvl: fn})
}

// Utilization registers a monotone busy-cycle counter sampled as
// per-window increment / window length.
func (s *Series) Utilization(name string, busy func() uint64) {
	if busy == nil {
		panic(fmt.Sprintf("obs: nil sampler for series column %q", name))
	}
	s.register(seriesColumn{name: name, kind: kindUtilization, ctr: busy})
}

// DeltaRatio registers two monotone counters sampled as the windowed
// num-increment / den-increment (0 when den did not move).
func (s *Series) DeltaRatio(name string, num, den func() uint64) {
	if num == nil || den == nil {
		panic(fmt.Sprintf("obs: nil sampler for series column %q", name))
	}
	s.register(seriesColumn{name: name, kind: kindDeltaRatio, ctr: num, den: den})
}

// Len returns the number of registered columns.
func (s *Series) Len() int { return len(s.columns) }

// Start freezes the column set (sorted by name), preallocates the
// sample state, and schedules the sampler as one of p's pollers. The
// t=0 baseline row is taken synchronously (Pollers.Poll semantics), so
// the first real window has a baseline to delta against.
func (s *Series) Start(p *Pollers) *SeriesData {
	if s.started {
		panic("obs: series started twice")
	}
	s.started = true
	s.names = nil
	sort.SliceStable(s.columns, func(i, j int) bool {
		return s.columns[i].name < s.columns[j].name
	})
	names := make([]string, len(s.columns))
	for i, c := range s.columns {
		names[i] = c.name
	}
	s.data = &SeriesData{
		IntervalCycles: uint64(s.interval),
		Columns:        names,
	}
	s.last = make([]uint64, 2*len(s.columns)) // slot pairs: ctr, den
	p.Poll(s.interval, s.sample)
	return s.data
}

// sample appends one epoch row. It runs once per interval on the
// kernel hot path; the appends amortize via slice doubling and are the
// only allocations.
func (s *Series) sample(now sim.Time) {
	width := now - s.lastTime // 0 only on the t=0 baseline row
	s.lastTime = now
	s.data.Times = append(s.data.Times, uint64(now))
	for i := range s.columns {
		c := &s.columns[i]
		var v float64
		switch c.kind {
		case kindDelta:
			cur := c.ctr()
			v = float64(cur - s.last[2*i])
			s.last[2*i] = cur
		case kindLevel:
			v = c.lvl()
		case kindUtilization:
			cur := c.ctr()
			if width > 0 {
				v = float64(cur-s.last[2*i]) / float64(width)
			}
			s.last[2*i] = cur
		case kindDeltaRatio:
			num, den := c.ctr(), c.den()
			dn, dd := num-s.last[2*i], den-s.last[2*i+1]
			if dd > 0 {
				v = float64(dn) / float64(dd)
			}
			s.last[2*i], s.last[2*i+1] = num, den
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.data.Values = append(s.data.Values, v)
	}
	s.raw = append(s.raw, s.last...)
}

// Finish closes the series at the run's end cycle (in cmp, the last
// core's completion cycle). The poller trails the final simulation
// event, so rows can land past the end of the run — mid-drain epochs
// that belong to no execution window. Finish drops them, folds their
// increments into one final partial row stamped at end (width = the
// cycles since the last full epoch), and frees the rewind state. If the
// grid divided the run exactly, the table is left untouched. Without a
// Finish call the series behaves as before: trailing rows stay.
//
// Every counter increment between the last full epoch and the drain is
// accounted to the final row, so the column sums of a finished delta
// column equal the end-of-run snapshot total.
func (s *Series) Finish(end sim.Time) {
	if !s.started {
		panic("obs: series finished before Start")
	}
	if s.finished {
		panic("obs: series finished twice")
	}
	s.finished = true
	n := len(s.columns)
	if n == 0 {
		s.raw = nil
		return
	}
	kept := len(s.data.Times)
	for kept > 0 && s.data.Times[kept-1] > uint64(end) {
		kept--
	}
	if kept < len(s.data.Times) {
		s.data.Times = s.data.Times[:kept]
		s.data.Values = s.data.Values[:kept*n]
		// Rewind the sampler to the last kept row: the dropped rows'
		// increments re-enter the deltas of the final partial row.
		if kept > 0 {
			copy(s.last, s.raw[(kept-1)*2*n:kept*2*n])
			s.lastTime = sim.Time(s.data.Times[kept-1])
		} else {
			clear(s.last)
			s.lastTime = 0
		}
	}
	if kept > 0 && s.data.Times[kept-1] == uint64(end) {
		// The grid divided the run exactly; nothing left to flush.
		s.raw = nil
		return
	}
	s.sample(end)
	s.raw = nil
}

// Row returns sample row i as a sub-slice of Values.
func (d *SeriesData) Row(i int) []float64 {
	n := len(d.Columns)
	return d.Values[i*n : (i+1)*n]
}

// Rows returns the number of sample rows.
func (d *SeriesData) Rows() int {
	if len(d.Columns) == 0 {
		return 0
	}
	return len(d.Values) / len(d.Columns)
}

// WriteCSV serializes the series as a deterministic CSV table: a
// "cycle,<col>,<col>..." header then one row per epoch, floats in
// shortest round-trip form. Two identical series serialize
// byte-identically.
func (d *SeriesData) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for _, c := range d.Columns {
		bw.WriteByte(',')
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for i := 0; i < d.Rows(); i++ {
		fmt.Fprintf(bw, "%d", d.Times[i])
		for _, v := range d.Row(i) {
			bw.WriteByte(',')
			bw.WriteString(formatFloat(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSON serializes the series as deterministic JSON: fixed field
// order, shortest round-trip floats, rows nested per epoch so the file
// is self-describing without the flat-Values convention.
func (d *SeriesData) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"interval_cycles\": %d,\n  \"columns\": [", d.IntervalCycles)
	for i, c := range d.Columns {
		if i > 0 {
			bw.WriteString(", ")
		}
		bw.WriteString(quote(c))
	}
	bw.WriteString("],\n  \"rows\": [")
	for i := 0; i < d.Rows(); i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n    {\"cycle\": %d, \"values\": [", d.Times[i])
		for j, v := range d.Row(i) {
			if j > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(formatFloat(v))
		}
		bw.WriteString("]}")
	}
	if d.Rows() > 0 {
		bw.WriteString("\n  ")
	}
	bw.WriteString("]\n}\n")
	return bw.Flush()
}
