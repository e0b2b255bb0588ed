package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// minRuns is how many runs a side needs before its quartiles mean
// anything; the guide asks for ten alternating pairs.
const minRuns = 4

// loadSeries reads a file written with -out, one result per line, and
// returns its untraced runs by workload, in file order.
func loadSeries(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	runs := map[string][]*result{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Traced {
			runs[r.Workload] = append(runs[r.Workload], &r)
		}
	}
	return runs, sc.Err()
}

// compareFiles judges series B against series A, the parent: one row
// per (workload, end-to-end metric) with each side's median over its
// runs, B's worsening relative to A, the metric's bound, each side's
// run-to-run spread (interquartile range over median) and a verdict. A
// pair is unresolved, not unchanged, when a side has fewer than minRuns
// runs, or spreads wider than the bound unless every run of B reads
// better than every run of A; otherwise it regressed if B's median is
// worse than A's by more than the bound. It reports whether any row
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadSeries(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSeries(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-13s %-17s %5s %12s %12s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "worse by", "bound", "spread A", "spread B", "verdict")
	rows := 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.name), values(rb, d.name)
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.higher {
				worse = -worse
			}
			sa, sb := runSpread(va), runSpread(vb)
			verdict := "ok"
			switch {
			case len(va) < minRuns || len(vb) < minRuns:
				verdict = "unresolved (too few runs)"
			case allBetter(va, vb, d.higher):
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-17s %2d/%-2d %12.6g %12.6g %+8.2f%% %6.0f%% %8.2f%% %8.2f%%  %s\n",
				wl.name, d.name, len(va), len(vb), ma, mb, 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
			rows++
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both files")
	}
	return regressed, nil
}

func values(runs []*result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// runSpread is the distance between the first and the third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives, which is how the driver measures
// a benchmark's steadiness. Fewer than two values have no spread.
func runSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(xs))
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, higher bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
