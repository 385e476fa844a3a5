package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{4, 4, 4, 100}, 4, 4, 76},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	cases := []struct {
		name       string
		base, head []float64
		higher     bool
		bound      float64
		want       string
	}{
		{"same", steady, shift(steady, 1.001), true, 0.10, verdictUnchanged},
		{"small gain within noise is not better", steady, shift(steady, 1.005), true, 0.10, verdictUnchanged},
		{"gain beyond the base quartiles", steady, shift(steady, 1.05), true, 0.10, verdictBetter},
		{"loss within bound", steady, shift(steady, 0.95), true, 0.10, verdictUnchanged},
		{"loss beyond bound", steady, shift(steady, 0.85), true, 0.10, verdictWorse},
		{"lower is better: faster", steady, shift(steady, 0.9), false, 0.10, verdictBetter},
		{"lower is better: slower", steady, shift(steady, 1.2), false, 0.10, verdictWorse},
		{"spread beyond bound", noisy, shift(noisy, 1.05), true, 0.10, verdictUnresolved},
		{"every head sample beats every base sample", noisy, shift(steady, 2), true, 0.10, verdictBetter},
		{"every head sample loses to every base sample", noisy, shift(steady, 0.5), true, 0.10, verdictWorse},
		{"every head sample loses, but by less than the bound", []float64{7.0, 10.0, 10.1}, []float64{10.2, 10.2, 10.2}, false, 0.20, verdictUnresolved},
		{"no samples", nil, steady, true, 0.10, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
