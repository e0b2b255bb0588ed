// Package eval is the experiment harness: it reproduces every figure in
// the paper's evaluation section (§3) over the simulated PlanetLab
// deployment, printing the same series and summary rows the paper plots.
//
//	Figure 2 — latency/distance scatter + convex hull + percentile cutoffs
//	           + spline approximation + 2/3·c line for one landmark
//	Figure 3 — CDF of localization error for Octant, GeoLim, GeoPing,
//	           GeoTrack over the 51-node leave-one-out evaluation, with the
//	           §3 median/worst summary table
//	Figure 4 — fraction of targets inside the estimated region vs number
//	           of landmarks, Octant vs GeoLim
package eval

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"octant/internal/baselines"
	"octant/internal/core"
	"octant/internal/netsim"
	"octant/internal/probe"
	"octant/internal/stats"
)

// Deployment bundles the simulated world with the full-survey measurement
// state shared by all experiments.
type Deployment struct {
	World  *netsim.World
	Prober probe.Prober
	// Landmarks lists all 51 sites as landmark descriptors (each also
	// serves as a target, leave-one-out, per §3).
	Landmarks []core.Landmark
	// Survey is the full 51-node survey; experiments subset it.
	Survey *core.Survey
}

// NewDeployment builds the §3 testbed: the default 51-site world.
func NewDeployment(seed uint64) (*Deployment, error) {
	w := netsim.NewWorld(netsim.Config{Seed: seed})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	lms := make([]core.Landmark, len(hosts))
	for i, h := range hosts {
		lms[i] = core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc}
	}
	s, err := core.NewSurvey(p, lms, core.SurveyOpts{UseHeights: true})
	if err != nil {
		return nil, err
	}
	return &Deployment{World: w, Prober: p, Landmarks: lms, Survey: s}, nil
}

// leaveOneOut returns the survey with landmark ti removed.
func (d *Deployment) leaveOneOut(ti int) (*core.Survey, error) {
	idx := make([]int, 0, len(d.Landmarks)-1)
	for i := range d.Landmarks {
		if i != ti {
			idx = append(idx, i)
		}
	}
	return d.Survey.Subset(idx)
}

// Fig3Row is one technique's error samples.
type Fig3Row struct {
	Name   string
	Errors []float64 // miles, one per target
	// Contained counts targets whose true position fell inside the
	// technique's estimated region (region-based techniques only).
	Contained int
	// HasRegion marks region-producing techniques.
	HasRegion bool
}

// Fig3Result holds the full comparison.
type Fig3Result struct {
	Rows    []Fig3Row
	Targets int
}

// RunFig3 reproduces Figure 3 and the §3 accuracy table: leave-one-out
// localization of every node by all four techniques. octantCfg customizes
// Octant (zero value = paper defaults); step localizes every step-th node
// (1 = all 51; larger steps for quick runs and benchmarks).
func (d *Deployment) RunFig3(octantCfg core.Config, step int) (*Fig3Result, error) {
	if step < 1 {
		step = 1
	}
	rows := map[string]*Fig3Row{
		"Octant":   {Name: "Octant", HasRegion: true},
		"GeoLim":   {Name: "GeoLim", HasRegion: true},
		"GeoPing":  {Name: "GeoPing"},
		"GeoTrack": {Name: "GeoTrack"},
	}
	targets := 0
	for ti := 0; ti < len(d.Landmarks); ti += step {
		target := d.Landmarks[ti]
		sub, err := d.leaveOneOut(ti)
		if err != nil {
			return nil, err
		}
		targets++

		loc := core.NewLocalizer(d.Prober, sub, octantCfg)
		ores, err := loc.LocalizeContext(context.Background(), target.Addr)
		if err != nil {
			return nil, fmt.Errorf("eval: octant on %s: %w", target.Name, err)
		}
		octRow := rows["Octant"]
		octRow.Errors = append(octRow.Errors, ores.Point.DistanceMiles(target.Loc))
		if ores.ContainsTruth(target.Loc) {
			octRow.Contained++
		}

		gl := baselines.NewGeoLim(sub)
		gres, err := gl.Localize(d.Prober, target.Addr, octantCfg.Probes)
		if err != nil {
			return nil, fmt.Errorf("eval: geolim on %s: %w", target.Name, err)
		}
		glRow := rows["GeoLim"]
		glRow.Errors = append(glRow.Errors, gres.Point.DistanceMiles(target.Loc))
		if gres.ContainsTruth(target.Loc) {
			glRow.Contained++
		}

		gp := baselines.NewGeoPing(sub)
		pres, err := gp.Localize(d.Prober, target.Addr, octantCfg.Probes)
		if err != nil {
			return nil, fmt.Errorf("eval: geoping on %s: %w", target.Name, err)
		}
		rows["GeoPing"].Errors = append(rows["GeoPing"].Errors, pres.Point.DistanceMiles(target.Loc))

		gt := baselines.NewGeoTrack(sub)
		tres, err := gt.Localize(d.Prober, target.Addr, octantCfg.Probes)
		if err != nil {
			return nil, fmt.Errorf("eval: geotrack on %s: %w", target.Name, err)
		}
		rows["GeoTrack"].Errors = append(rows["GeoTrack"].Errors, tres.Point.DistanceMiles(target.Loc))
	}
	out := &Fig3Result{Targets: targets}
	for _, name := range []string{"Octant", "GeoLim", "GeoPing", "GeoTrack"} {
		out.Rows = append(out.Rows, *rows[name])
	}
	return out, nil
}

// Summaries converts the Fig3 rows into the §3 text-table shape.
func (r *Fig3Result) Summaries() []stats.Summary {
	out := make([]stats.Summary, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, stats.Summarize(row.Name, row.Errors))
	}
	return out
}

// FormatCDF renders the Figure 3 CDF as aligned text columns: for each
// technique, (error mi, cumulative fraction) pairs at each decile.
func (r *Fig3Result) FormatCDF() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "fraction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12s", row.Name)
	}
	b.WriteString("\n")
	for q := 0.1; q <= 1.0001; q += 0.1 {
		fmt.Fprintf(&b, "%-10.1f", q)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%12.1f", stats.Percentile(row.Errors, q*100))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig4Point is one (landmark count, containment) measurement.
type Fig4Point struct {
	Landmarks   int
	OctantPct   float64
	GeoLimPct   float64
	OctantArea  float64 // median region area (mi²) for context
	TrialsCount int
}

// RunFig4 reproduces Figure 4: the percentage of targets whose true
// position lies inside the estimated region, as a function of the number
// of landmarks, for Octant and GeoLim. counts defaults to 10..50 step 5.
// Each count is averaged over trials random landmark subsets (targets are
// the remaining nodes).
func (d *Deployment) RunFig4(octantCfg core.Config, counts []int, trials int, seed uint64) ([]Fig4Point, error) {
	if len(counts) == 0 {
		counts = []int{10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	if trials < 1 {
		trials = 2
	}
	rng := rand.New(rand.NewPCG(seed, 0xf16))
	var out []Fig4Point
	for _, k := range counts {
		if k >= len(d.Landmarks) {
			k = len(d.Landmarks) - 1
		}
		var octIn, octTot, glIn, glTot int
		var areas []float64
		// Keep the per-count sample size roughly constant: with few
		// remaining targets (large k), run more random subsets.
		kTrials := trials
		if remaining := len(d.Landmarks) - k; remaining*kTrials < 30 {
			kTrials = (30 + remaining - 1) / remaining
		}
		for t := 0; t < kTrials; t++ {
			perm := rng.Perm(len(d.Landmarks))
			lmIdx := append([]int(nil), perm[:k]...)
			sort.Ints(lmIdx)
			sub, err := d.Survey.Subset(lmIdx)
			if err != nil {
				return nil, err
			}
			isLandmark := make(map[int]bool, k)
			for _, i := range lmIdx {
				isLandmark[i] = true
			}
			loc := core.NewLocalizer(d.Prober, sub, octantCfg)
			gl := baselines.NewGeoLim(sub)
			// Evaluate on every non-landmark node. The Octant side is one
			// homogeneous batch per subset survey, so it runs through the
			// fused batch solve (bit-identical to per-target Localize, see
			// TestFig4FusedParity) and shares rasterized geography across
			// the whole trial.
			var evalIdx []int
			var addrs []string
			for ti := 0; ti < len(d.Landmarks); ti++ {
				if !isLandmark[ti] {
					evalIdx = append(evalIdx, ti)
					addrs = append(addrs, d.Landmarks[ti].Addr)
				}
			}
			oress, oerrs := loc.LocalizeBatch(context.Background(), addrs)
			for bi, ti := range evalIdx {
				target := d.Landmarks[ti]
				if ores := oress[bi]; oerrs[bi] == nil {
					octTot++
					if ores.ContainsTruth(target.Loc) {
						octIn++
					}
					areas = append(areas, ores.AreaKm2*geo2mi2)
				}
				gres, err := gl.Localize(d.Prober, target.Addr, octantCfg.Probes)
				if err == nil {
					glTot++
					if gres.ContainsTruth(target.Loc) {
						glIn++
					}
				}
			}
		}
		pt := Fig4Point{Landmarks: k, TrialsCount: kTrials}
		if octTot > 0 {
			pt.OctantPct = 100 * float64(octIn) / float64(octTot)
		}
		if glTot > 0 {
			pt.GeoLimPct = 100 * float64(glIn) / float64(glTot)
		}
		pt.OctantArea = stats.Median(areas)
		out = append(out, pt)
	}
	return out, nil
}

// geo2mi2 converts km² to mi².
const geo2mi2 = 0.386102

// FormatFig4 renders the Figure 4 series as text.
func FormatFig4(pts []Fig4Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %18s\n", "landmarks", "Octant %", "GeoLim %", "median area mi²")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10d %12.1f %12.1f %18.0f\n", p.Landmarks, p.OctantPct, p.GeoLimPct, p.OctantArea)
	}
	return b.String()
}
