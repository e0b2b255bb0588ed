package height_test

import (
	"testing"

	"octant/internal/eval"
	"octant/internal/geo"
	"octant/internal/height"
)

// targetFitInput is one target fit: the landmarks' positions, heights and
// RTTs to the target, and κ.
type targetFitInput struct {
	name    string
	locs    []geo.Point
	heights []float64
	rtts    []float64
	kappa   float64
}

// fig3Fits is every leave-one-out target fit of the Figure 3 deployment of
// seed: each site the target, the other 50 its landmarks.
func fig3Fits(tb testing.TB, seed uint64) []targetFitInput {
	tb.Helper()
	d, err := eval.NewDeployment(seed)
	if err != nil {
		tb.Fatal(err)
	}
	var out []targetFitInput
	for ti, target := range d.Landmarks {
		var idx []int
		for i := range d.Landmarks {
			if i != ti {
				idx = append(idx, i)
			}
		}
		sub, err := d.Survey.Subset(idx)
		if err != nil {
			tb.Fatal(err)
		}
		in := targetFitInput{name: target.Name, heights: sub.Heights, kappa: sub.Kappa,
			locs: make([]geo.Point, len(idx)), rtts: make([]float64, len(idx))}
		for k, i := range idx {
			in.locs[k], in.rtts[k] = d.Landmarks[i].Loc, d.Survey.RTT[i][ti]
		}
		out = append(out, in)
	}
	return out
}

// BenchmarkSolveTargetK is the target-height fit alone over the
// leave-one-out targets of the seed-1 Figure 3 deployment: one iteration is
// one fit per site.
func BenchmarkSolveTargetK(b *testing.B) {
	fits := fig3Fits(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range fits {
			if _, err := height.SolveTargetK(in.locs, in.heights, in.rtts, in.kappa); err != nil {
				b.Fatal(err)
			}
		}
	}
}
