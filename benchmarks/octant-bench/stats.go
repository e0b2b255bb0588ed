package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile (0..1) of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the 99th percentile of an ascending slice when at least
// ten samples lie beyond it, else the highest percentile that has ten
// beyond, never below the median. p is the percentile actually used.
func tail(s []float64) (value, p float64) {
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if most := n - 11; idx > most {
		idx = most
	}
	if idx < n/2 {
		idx = n / 2
	}
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// best is the decile of xs on its better side: the 10th percentile of a
// cost, the 90th of a rate. The machines this runs on are shared. Other
// tenants slow a window down by tens of percent for seconds at a time
// and never speed one up, so the better windows are the part of the run
// that measured the program, and their decile is a figure that a
// disturbed minority, or majority, of windows does not move, without
// hanging on one lucky window as the minimum would. Short windows keep a
// disturbance from spoiling many of them. README.md has the sizing.
func best(xs []float64, higher bool) float64 {
	if higher {
		return quantile(sorted(xs), 0.90)
	}
	return quantile(sorted(xs), 0.10)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
