// Package stats provides the small statistical toolkit used by the
// evaluation harness: percentiles, empirical CDFs, and summary rows matching
// the series the paper plots (Figure 3 is an error CDF; Figure 2 overlays
// percentile cutoffs; §3 reports medians and worst cases).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary holds the row shape of the paper's §3 accuracy table.
type Summary struct {
	Name   string
	N      int
	Median float64
	P90    float64
	Worst  float64
	Mean   float64
}

// Summarize computes a Summary over xs.
func Summarize(name string, xs []float64) Summary {
	return Summary{
		Name:   name,
		N:      len(xs),
		Median: Median(xs),
		P90:    Percentile(xs, 90),
		Worst:  Max(xs),
		Mean:   Mean(xs),
	}
}

// FormatTable renders summaries as an aligned ASCII table.
func FormatTable(rows []Summary, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %12s %12s %12s %12s\n", "technique", "n",
		"median "+unit, "p90 "+unit, "worst "+unit, "mean "+unit)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6d %12.1f %12.1f %12.1f %12.1f\n",
			r.Name, r.N, r.Median, r.P90, r.Worst, r.Mean)
	}
	return b.String()
}
