package baselines

import (
	"math"
	"strings"
	"testing"

	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/netsim"
	"octant/internal/probe"
)

func testSetup(t *testing.T, targetIdx int) (*probe.SimProber, *core.Survey, *netsim.Node) {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: 11})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []core.Landmark
	for i, h := range hosts {
		if i == targetIdx {
			continue
		}
		lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := core.NewSurvey(p, lms, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, s, hosts[targetIdx]
}

func TestGeoLimBestlinesValid(t *testing.T) {
	_, s, _ := testSetup(t, 0)
	gl := NewGeoLim(s)
	// Every bestline must dominate its calibration points: the bound for
	// the observed RTT to a peer must be ≥ the true distance.
	for i := 0; i < s.N(); i++ {
		for j := 0; j < s.N(); j++ {
			if i == j {
				continue
			}
			d := s.Landmarks[i].Loc.DistanceKm(s.Landmarks[j].Loc)
			bound := gl.Bound(i, s.RTT[i][j])
			if bound < d-1e-3 && bound < geo.LatencyToMaxDistanceKm(s.RTT[i][j])-1e-3 {
				t.Errorf("bestline %d underestimates peer %d: bound %.1f < dist %.1f", i, j, bound, d)
			}
		}
	}
	// Bounds are physical.
	for i := 0; i < s.N(); i++ {
		for _, rtt := range []float64{1, 10, 50, 200} {
			b := gl.Bound(i, rtt)
			if b < 0 || b > geo.LatencyToMaxDistanceKm(rtt)+1e-9 {
				t.Errorf("bound(%d, %v) = %v breaks physics", i, rtt, b)
			}
		}
	}
}

func TestGeoLimLocalize(t *testing.T) {
	// Host 20's bounds over-constrain; host 25's overlap.
	for _, tc := range []struct {
		idx     int
		overlap bool
	}{{20, false}, {25, true}} {
		idx, overlap := tc.idx, tc.overlap
		p, s, target := testSetup(t, idx)
		gl := NewGeoLim(s)
		res, err := gl.Localize(p, target.Name, 10)
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Point.DistanceMiles(target.Loc); e > 1200 {
			t.Errorf("host %d: GeoLim error %.0f mi absurd", idx, e)
		}
		if !res.Region.IsEmpty() != overlap || res.AreaKm2 > 0 != overlap {
			t.Errorf("host %d: region %v, area %v; bounds overlap: %v", idx, res.Region, res.AreaKm2, overlap)
		}
		// The region is the intersection of the bound disks: every vertex of
		// it — a corner of a cell whose centre is inside every disk, on the
		// solver's 4 km fine lattice — is within a cell's diagonal of every
		// bound.
		rtts := mustMinRTTs(t, p, s, target.Name)
		for _, ring := range res.Region.Rings {
			for _, v := range ring {
				pt := res.Projection.Inverse(v)
				for i, lm := range s.Landmarks {
					if d, bound := lm.Loc.DistanceKm(pt), gl.Bound(i, rtts[i]); d > bound+4*math.Sqrt2 {
						t.Fatalf("host %d: vertex %v is %.1f km from %s, bound %.1f km", idx, pt, d, lm.Name, bound)
					}
				}
			}
		}
		// Every landmark fails; the error names the first in survey order.
		want := "baselines: geolim ping " + s.Landmarks[0].Name + "→bogus.example.org: "
		if _, err := gl.Localize(p, "bogus.example.org", 3); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("unknown target: err = %v, want prefix %q", err, want)
		}
	}
}

func TestGeoLimOverconstraintFallback(t *testing.T) {
	// Force over-constraint: bound everything to near zero by lying
	// about bestlines via a survey subset with absurd probes... instead,
	// call the violation minimizer path directly by shrinking disks:
	// craft a survey of 3 distant landmarks and a target far from all.
	p, s, target := testSetup(t, 5)
	sub, err := s.Subset([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gl := NewGeoLim(sub)
	res, err := gl.Localize(p, target.Name, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Point.Valid() {
		t.Errorf("fallback point invalid: %v", res.Point)
	}

	// A sliver: two flat bestlines whose bounds overlap by 1 km, less than
	// the solver's 4 km cell. Whether or not a cell centre lands in the lens,
	// the point returned must break no bound by as much as a cell.
	two := &core.Survey{Landmarks: s.Landmarks[:2]}
	rtts := mustMinRTTs(t, p, two, target.Name)
	// Split the landmarks' distance + 1 km in proportion to the speed-of-light
	// caps, which Bound applies and which together span that distance.
	cap0, cap1 := geo.LatencyToMaxDistanceKm(rtts[0]), geo.LatencyToMaxDistanceKm(rtts[1])
	reach := two.Landmarks[0].Loc.DistanceKm(two.Landmarks[1].Loc) + 1
	gl = &GeoLim{Survey: two, bestlines: [][2]float64{{0, reach * cap0 / (cap0 + cap1)}, {0, reach * cap1 / (cap0 + cap1)}}}
	if got := gl.Bound(0, rtts[0]) + gl.Bound(1, rtts[1]); math.Abs(got-reach) > 1e-6 {
		t.Fatalf("bounds sum to %.3f km, want %.3f: the caps cut them", got, reach)
	}
	res, err = gl.Localize(p, target.Name, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, lm := range two.Landmarks {
		if viol := lm.Loc.DistanceKm(res.Point) - gl.Bound(i, rtts[i]); !(viol < 4) {
			t.Errorf("sliver: point %v breaks %s's bound by %.2f km", res.Point, lm.Name, viol)
		}
	}
}

// mustMinRTTs re-measures what GeoLim.Localize measures, with its own ping
// loop rather than the package's helper: the simulated world answers a
// repeated ping train identically.
func mustMinRTTs(t *testing.T, p probe.Prober, s *core.Survey, target string) []float64 {
	t.Helper()
	rtts := make([]float64, s.N())
	for i, lm := range s.Landmarks {
		samples, err := p.Ping(lm.Addr, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rtts[i], err = probe.MinRTT(samples); err != nil {
			t.Fatal(err)
		}
	}
	return rtts
}

func TestGeoPingPicksNearbyLandmark(t *testing.T) {
	p, s, target := testSetup(t, 30)
	gp := NewGeoPing(s)
	res, err := gp.Localize(p, target.Name, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestLandmark < 0 || res.BestLandmark >= s.N() {
		t.Fatalf("bad landmark index %d", res.BestLandmark)
	}
	if res.Point != s.Landmarks[res.BestLandmark].Loc {
		t.Error("point must be the matched landmark's location")
	}
	// GeoPing's error is bounded by the worst nearest-landmark distance
	// only heuristically; sanity-bound it loosely.
	if e := res.Point.DistanceMiles(target.Loc); e > 1500 {
		t.Errorf("GeoPing error %.0f mi absurd", e)
	}
	if res.Score < 0 {
		t.Errorf("negative score %v", res.Score)
	}
}

func TestGeoTrackResolvesRouter(t *testing.T) {
	p, s, target := testSetup(t, 40)
	gt := NewGeoTrack(s)
	res, err := gt.Localize(p, target.Name, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Point.Valid() {
		t.Fatalf("invalid point %v", res.Point)
	}
	if res.Hops < 2 {
		t.Errorf("implausible hop count %d", res.Hops)
	}
	if e := res.Point.DistanceMiles(target.Loc); e > 1500 {
		t.Errorf("GeoTrack error %.0f mi absurd", e)
	}
}

func TestBaselinesComparableOnSameTarget(t *testing.T) {
	// All three baselines run on the same survey/target without error
	// and produce finite errors.
	p, s, target := testSetup(t, 15)
	var errs []float64
	gl, errGL := NewGeoLim(s).Localize(p, target.Name, 10)
	gp, errGP := NewGeoPing(s).Localize(p, target.Name, 10)
	gt, errGT := NewGeoTrack(s).Localize(p, target.Name, 10)
	if errGL != nil || errGP != nil || errGT != nil {
		t.Fatal(errGL, errGP, errGT)
	}
	for _, pt := range []geo.Point{gl.Point, gp.Point, gt.Point} {
		e := pt.DistanceMiles(target.Loc)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Errorf("non-finite error")
		}
		errs = append(errs, e)
	}
	_ = errs
}
