package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(x)
	}
	if m.N() != 8 {
		t.Fatalf("n = %d", m.N())
	}
	if math.Abs(m.Value()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", m.Value())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min,max = %v,%v", m.Min(), m.Max())
	}
	if math.Abs(m.Sum()-40) > 1e-9 {
		t.Fatalf("sum = %v, want 40", m.Sum())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Fatal("empty Mean should report zeros")
	}
}

// Property: running mean matches direct computation.
func TestMeanMatchesDirectProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip degenerate inputs
			}
			m.Observe(x)
			sum += x
		}
		if len(xs) > 0 {
			want := sum / float64(len(xs))
			scale := math.Max(1, math.Abs(want))
			ok = math.Abs(m.Value()-want)/scale < 1e-6
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMeanSingleSample pins the min/max behavior of a one-sample
// stream: both must be the sample itself, even when it is negative or
// zero (a sign-based initialization would get these wrong).
func TestMeanSingleSample(t *testing.T) {
	for _, x := range []float64{7.5, -3.25, 0} {
		var m Mean
		m.Observe(x)
		if m.N() != 1 {
			t.Fatalf("n = %d, want 1", m.N())
		}
		if m.Min() != x || m.Max() != x {
			t.Errorf("single sample %v: min,max = %v,%v, want both %v", x, m.Min(), m.Max(), x)
		}
		if m.Value() != x {
			t.Errorf("single sample %v: mean = %v", x, m.Value())
		}
	}
}

// Property: min and max always bracket the mean and equal some sample.
func TestMeanMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			m.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if len(xs) == 0 {
			return m.Min() == 0 && m.Max() == 0
		}
		return m.Min() == lo && m.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatal("Ratio(10,4)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero must be 0")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) - 0.5) // one sample per bucket
	}
	if h.N() != 100 {
		t.Fatalf("n = %d", h.N())
	}
	if p := h.Percentile(0.5); math.Abs(p-50) > 1.0 {
		t.Fatalf("p50 = %v, want ~50", p)
	}
	if p := h.Percentile(0.99); math.Abs(p-99) > 1.0 {
		t.Fatalf("p99 = %v, want ~99", p)
	}
	if p := h.Percentile(1.0); p < 99 {
		t.Fatalf("p100 = %v, want >= 99", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 1)
	h.Observe(5)
	h.Observe(1e9)
	if h.Max() != 1e9 {
		t.Fatalf("max = %v", h.Max())
	}
	// p100 reports the exact max despite bucket overflow.
	if h.Percentile(1.0) != 1e9 {
		t.Fatalf("p100 = %v, want 1e9", h.Percentile(1.0))
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Observe(-3)
	if h.Percentile(1.0) > 1 {
		t.Fatalf("negative sample should land in bucket 0")
	}
}

// TestHistogramPercentileEdges covers the degenerate queries: empty
// histogram, a single bucket, single sample, and the p0/p100 endpoints.
func TestHistogramPercentileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		h := NewHistogram(8, 1)
		for _, p := range []float64{0, 0.5, 1} {
			if got := h.Percentile(p); got != 0 {
				t.Errorf("empty histogram p%v = %v, want 0", p, got)
			}
		}
		if h.Min() != 0 || h.Max() != 0 {
			t.Errorf("empty histogram min,max = %v,%v", h.Min(), h.Max())
		}
	})
	t.Run("one bucket", func(t *testing.T) {
		h := NewHistogram(1, 10)
		h.Observe(3)
		h.Observe(7)
		if got := h.Percentile(0); got != 3 {
			t.Errorf("p0 = %v, want exact min 3", got)
		}
		// The bucket's upper bound is 10; the exact max is 7. Queries
		// must never report a value larger than any sample.
		for _, p := range []float64{0.5, 0.99, 1} {
			if got := h.Percentile(p); got != 7 {
				t.Errorf("p%v = %v, want clamped max 7", p, got)
			}
		}
	})
	t.Run("single sample", func(t *testing.T) {
		h := NewHistogram(4, 25)
		h.Observe(13)
		for _, p := range []float64{0, 0.5, 1} {
			if got := h.Percentile(p); got != 13 {
				t.Errorf("single-sample p%v = %v, want 13", p, got)
			}
		}
		if h.Min() != 13 || h.Max() != 13 {
			t.Errorf("single-sample min,max = %v,%v, want 13,13", h.Min(), h.Max())
		}
	})
	t.Run("p0 and p100 with spread", func(t *testing.T) {
		h := NewHistogram(100, 1)
		h.Observe(2.5)
		h.Observe(41.5)
		h.Observe(97.25)
		if got := h.Percentile(0); got != 2.5 {
			t.Errorf("p0 = %v, want exact min 2.5", got)
		}
		if got := h.Percentile(1); got != 97.25 {
			t.Errorf("p100 = %v, want exact max 97.25", got)
		}
		// Out-of-range p clamps rather than panicking.
		if got := h.Percentile(-0.5); got != 2.5 {
			t.Errorf("p<0 = %v, want min", got)
		}
		if got := h.Percentile(1.5); got != 97.25 {
			t.Errorf("p>1 = %v, want max", got)
		}
	})
	t.Run("negative samples clamp but report exactly", func(t *testing.T) {
		h := NewHistogram(4, 1)
		h.Observe(-3)
		if got := h.Percentile(1); got != -3 {
			t.Errorf("p100 = %v, want exact max -3", got)
		}
		if got := h.Percentile(0); got != -3 {
			t.Errorf("p0 = %v, want exact min -3", got)
		}
	})
}

func TestHistogramBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram args did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("app", "value")
	tb.AddRow("fft", "1.00")
	tb.AddRow("barnes-hut", "0.95")
	out := tb.String()
	if !strings.Contains(out, "app") || !strings.Contains(out, "barnes-hut") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns align: every line has the same prefix width before col 2.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1.00") {
		t.Fatalf("column misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x", "1.23")
	csv := tb.CSV()
	want := "a,b\nx,1.23\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}
