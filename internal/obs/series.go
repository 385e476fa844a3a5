package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"tilesim/internal/sim"
)

// Series samples a registry's sampled quantities on a fixed
// simulated-time grid and accumulates one row per epoch (DESIGN.md
// §10). Its columns are the names declared through Registry.Sampled,
// sorted, so output is byte-deterministic regardless of declaration
// order; each column reads its quantity by kind (see Registry). The
// sampler is one of the system's Pollers and reads every column once
// per interval.
//
// Like every obs hook, the sampler must only read simulation state —
// the sample event consumes kernel sequence numbers but never changes
// the relative order of real events, so attaching a series shifts no
// simulated outcome (the no-feedback rule, asserted by the cmp series
// tests).
type Series struct {
	interval sim.Time
	columns  []any // each column's reader, in column order
	started  bool
	ended    bool
	finished bool
	end      sim.Time
	data     *SeriesData
	last     []uint64 // previous counter readings, a pair per column
	lastTime sim.Time
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

// NewSeries returns a series over r's sampled quantities, sampling
// every interval cycles (clamped to 1, like Pollers.Poll). Quantities
// declared after it are not sampled. A name declared twice panics.
func NewSeries(r *Registry, interval sim.Time) *Series {
	if interval == 0 {
		interval = 1
	}
	var names []string
	var columns []any
	for _, d := range r.sorted() {
		if d.sampled {
			names = append(names, d.name)
			columns = append(columns, d.q)
		}
	}
	return &Series{
		interval: interval,
		columns:  columns,
		data:     &SeriesData{IntervalCycles: uint64(interval), Columns: names},
	}
}

// Start preallocates the sample state and schedules the sampler as one
// of p's pollers. The t=0 baseline row is taken synchronously
// (Pollers.Poll semantics), so the first real window has a baseline to
// delta against.
func (s *Series) Start(p *Pollers) *SeriesData {
	if s.started {
		panic("obs: series started twice")
	}
	s.started = true
	s.last = make([]uint64, 2*len(s.columns)) // slot pairs: num, den
	p.Poll(s.interval, func(now sim.Time) {
		if !s.ended || now <= s.end {
			s.sample(now)
		}
	})
	return s.data
}

// sample appends one epoch row. It runs once per interval on the
// kernel hot path; the appends amortize via slice doubling and are the
// only allocations.
func (s *Series) sample(now sim.Time) {
	width := now - s.lastTime // 0 only on the t=0 baseline row
	s.lastTime = now
	s.data.Times = append(s.data.Times, uint64(now))
	for i, q := range s.columns {
		var v float64
		switch q := q.(type) {
		case counter:
			cur := q()
			v = float64(cur - s.last[2*i])
			s.last[2*i] = cur
		case gauge:
			v = q()
		case utilization:
			cur := q()
			if width > 0 {
				v = float64(cur-s.last[2*i]) / float64(width)
			}
			s.last[2*i] = cur
		case ratio:
			num, den := q.num(), q.den()
			dn, dd := num-s.last[2*i], den-s.last[2*i+1]
			if dd > 0 {
				v = float64(dn) / float64(dd)
			}
			s.last[2*i], s.last[2*i+1] = num, den
		default:
			panic(fmt.Sprintf("obs: the series cannot sample %T %q", q, s.data.Columns[i]))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.data.Values = append(s.data.Values, v)
	}
}

// End marks the run's end at cycle now (in cmp, the cycle the last core
// finishes). The poller keeps ticking through the drain that follows,
// but the sampler records no row past now.
func (s *Series) End(now sim.Time) {
	s.ended, s.end = true, now
}

// Finish closes the series at the end End marked: unless a row already
// lies on it, it appends one final partial row stamped at the end
// (width = the cycles since the last full epoch). That row folds in
// every increment since the last full epoch, the drain's included, so
// the column sums of a finished counter column equal the end-of-run
// snapshot total.
func (s *Series) Finish() {
	if !s.started {
		panic("obs: series finished before Start")
	}
	if !s.ended {
		panic("obs: series finished before End")
	}
	if s.finished {
		panic("obs: series finished twice")
	}
	s.finished = true
	if s.data.Times[len(s.data.Times)-1] != uint64(s.end) {
		s.sample(s.end)
	}
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
	var col []byte
	for i, c := range d.Columns {
		if i > 0 {
			bw.WriteString(", ")
		}
		col = appendString(col[:0], c, false)
		bw.Write(col)
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
