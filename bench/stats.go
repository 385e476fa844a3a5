package main

import (
	"math"
	"slices"
)

// quartiles returns the three cut points dividing xs into quarters,
// computed like Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the numbers match the acceptance check's. One
// sample is its own quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	cut := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// Verdicts of a base-versus-head comparison of one metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares head's samples of one metric with base's. Worse
// means head's median is worse than base's by more than bound (a share
// of base's median). Better means head wins at least nine tenths of the
// index-paired samples and the medians differ by more than base's
// interquartile range. When either side's spread exceeds bound the
// metric is unresolved, unless every head sample beats every base
// sample, or every head sample loses to every base sample and the
// median is worse by more than bound.
func verdict(base, head []float64, higherIsBetter bool, bound float64) string {
	if len(base) == 0 || len(head) == 0 {
		return verdictUnresolved
	}
	// gain is how much better b is than a, as a signed amount.
	gain := func(a, b float64) float64 {
		if higherIsBetter {
			return b - a
		}
		return a - b
	}
	bq1, bMed, bq3 := quartiles(base)
	hMed := median(head)
	worse := -gain(bMed, hMed) > bound*math.Abs(bMed)
	if spread(base) > bound || spread(head) > bound {
		switch {
		case gain(best(base, higherIsBetter), worst(head, higherIsBetter)) > 0:
			return verdictBetter
		case worse && gain(worst(base, higherIsBetter), best(head, higherIsBetter)) < 0:
			return verdictWorse
		}
		return verdictUnresolved
	}
	if worse {
		return verdictWorse
	}
	wins := 0
	n := min(len(base), len(head))
	for i := 0; i < n; i++ {
		if gain(base[i], head[i]) > 0 {
			wins++
		}
	}
	if 10*wins >= 9*n && gain(bMed, hMed) > bq3-bq1 {
		return verdictBetter
	}
	return verdictUnchanged
}

// best and worst return the most and least favourable sample.
func best(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

func worst(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}
