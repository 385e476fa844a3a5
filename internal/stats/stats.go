// Package stats provides the small statistics toolkit shared by every
// tilesim component: named counters, running means, histograms with
// percentile queries, and plain-text table rendering for the experiment
// harnesses.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates a running mean (Welford's update) plus min/max,
// without storing samples.
type Mean struct {
	n        uint64
	mean     float64
	min, max float64
}

// Observe adds one sample.
func (m *Mean) Observe(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// N returns the sample count.
func (m *Mean) N() uint64 { return m.n }

// Value returns the running mean (0 with no samples).
func (m *Mean) Value() float64 { return m.mean }

// Min returns the smallest sample (0 with no samples).
func (m *Mean) Min() float64 {
	if m.n == 0 {
		return 0
	}
	return m.min
}

// Max returns the largest sample (0 with no samples).
func (m *Mean) Max() float64 {
	if m.n == 0 {
		return 0
	}
	return m.max
}

// Sum returns mean*n, the total of all samples.
func (m *Mean) Sum() float64 { return m.mean * float64(m.n) }

// Ratio safely divides a by b, returning 0 when b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Histogram is a fixed-width-bucket histogram over [0, bucketWidth*len).
// Samples beyond the last bucket land in an overflow bucket. It supports
// approximate percentile queries at bucket resolution.
type Histogram struct {
	bucketWidth float64
	buckets     []uint64
	overflow    uint64
	mean        Mean
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, bucketWidth float64) *Histogram {
	if n <= 0 || bucketWidth <= 0 {
		panic("stats: histogram needs n > 0 and bucketWidth > 0")
	}
	return &Histogram{bucketWidth: bucketWidth, buckets: make([]uint64, n)}
}

// Observe adds one sample (negative samples clamp to bucket 0).
func (h *Histogram) Observe(x float64) {
	h.mean.Observe(x)
	if x < 0 {
		x = 0
	}
	i := int(x / h.bucketWidth)
	if i >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// N returns the total number of samples.
func (h *Histogram) N() uint64 { return h.mean.N() }

// Mean returns the exact running mean of all samples.
func (h *Histogram) Mean() float64 { return h.mean.Value() }

// Moments returns the exact running mean, extremes and count of all
// samples, for callers that report the distribution as a Mean. The
// caller only reads it; Observe keeps it current.
func (h *Histogram) Moments() *Mean { return &h.mean }

// Min returns the exact minimum sample (0 with no samples).
func (h *Histogram) Min() float64 { return h.mean.Min() }

// Max returns the exact maximum sample.
func (h *Histogram) Max() float64 { return h.mean.Max() }

// Percentile returns an upper bound for the p-th percentile (p in [0,1])
// at bucket resolution, clamped into the exact observed [min, max] range
// so a query can never report a value outside the sample set: p0 is the
// exact minimum, p100 never exceeds the exact maximum (bucket upper
// bounds would otherwise overshoot both on sparse streams — a one-sample
// histogram used to report bucketWidth for every percentile). Overflow
// samples report the exact observed max.
func (h *Histogram) Percentile(p float64) float64 {
	if h.mean.N() == 0 {
		return 0
	}
	if p <= 0 {
		return h.mean.Min()
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.mean.N())))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			bound := float64(i+1) * h.bucketWidth
			if bound > h.mean.Max() {
				bound = h.mean.Max()
			}
			if bound < h.mean.Min() {
				bound = h.mean.Min()
			}
			return bound
		}
	}
	return h.mean.Max()
}

// Table renders rows of labeled numeric series as an aligned plain-text
// table (the output format of cmd/figures and cmd/tables).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are kept and simply
// widen the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	grow(t.header)
	for _, r := range t.rows {
		grow(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < len(widths); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: tilesim
// labels never contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}
