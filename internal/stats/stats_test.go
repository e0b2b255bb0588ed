package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 10: 1.4}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

func TestMeanMinMaxMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Error("Max wrong")
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %v", Median(xs))
	}
	for _, f := range []func([]float64) float64{Mean, Max, Median} {
		if !math.IsNaN(f(nil)) {
			t.Error("empty input should be NaN")
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 1 + rng.IntN(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-12 || v < sorted[0]-1e-12 || v > sorted[n-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeAndFormat(t *testing.T) {
	s := Summarize("octant", []float64{10, 20, 30, 40, 50})
	if s.N != 5 || s.Median != 30 || s.Worst != 50 || s.Mean != 30 {
		t.Errorf("Summary = %+v", s)
	}
	tbl := FormatTable([]Summary{s}, "mi")
	if !strings.Contains(tbl, "octant") || !strings.Contains(tbl, "median mi") {
		t.Errorf("table:\n%s", tbl)
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 2 {
		t.Errorf("table should have header + 1 row, got %d lines", len(lines))
	}
}
