package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// degradedFixture builds a deployment keeping the world handle so tests
// can inject faults between the survey build and localization.
func degradedFixture(t *testing.T, seed uint64) (*netsim.World, *Survey, *Localizer, []*netsim.Node, *netsim.Node) {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: seed})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	target := hosts[0]
	var lms []Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, s, NewLocalizer(p, s, Config{}), hosts[1:], target
}

// TestDegradedLocalizationUnderBlackholes is the acceptance check for
// degraded mode: with 20% of landmark→target paths blackholed,
// LocalizeContext returns a Degraded result (not an error) whose
// provenance names every failed landmark — and once the faults clear,
// the answer is bit-identical to the pre-fault baseline.
func TestDegradedLocalizationUnderBlackholes(t *testing.T) {
	w, _, loc, landmarks, target := degradedFixture(t, 3)
	ctx := context.Background()

	baseline, err := loc.LocalizeContext(ctx, target.Name)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Degraded {
		t.Fatal("healthy baseline reported degraded")
	}

	nDown := len(landmarks) / 5 // 20%
	downed := map[string]bool{}
	for _, lm := range landmarks[:nDown] {
		w.SetPairBlackhole(lm.ID, target.ID, true)
		downed[lm.Inst] = true
	}

	res, err := loc.LocalizeContext(ctx, target.Name)
	if err != nil {
		t.Fatalf("20%% landmark loss must degrade, not error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded despite failed landmarks")
	}
	if res.Provenance == nil {
		t.Fatal("degraded result carries no provenance")
	}
	named := map[string]bool{}
	for _, f := range res.Provenance.Failures {
		if f.Reason == "" {
			t.Errorf("failure for %s has no reason", f.Landmark)
		}
		named[f.Landmark] = true
	}
	if len(named) != len(downed) {
		t.Fatalf("provenance names %d failed landmarks, want %d", len(named), len(downed))
	}
	for lm := range downed {
		if !named[lm] {
			t.Errorf("blackholed landmark %s missing from provenance failures", lm)
		}
	}
	// Partial RTT vectors skip the height deflation entirely: looser
	// constraints are safe, a height fit over NaNs is not.
	if res.TargetHeightMs != 0 {
		t.Errorf("degraded result solved a height (%v ms) over partial RTTs", res.TargetHeightMs)
	}

	for _, lm := range landmarks[:nDown] {
		w.SetPairBlackhole(lm.ID, target.ID, false)
	}
	healed, err := loc.LocalizeContext(ctx, target.Name)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Degraded {
		t.Fatal("result still degraded after faults cleared")
	}
	sameResult(t, target.Name, baseline, healed)
}

func TestQuorumFailureReturnsError(t *testing.T) {
	w, _, loc, landmarks, target := degradedFixture(t, 7)
	ctx := context.Background()

	// Leave only 2 landmarks reachable: below the default quorum of 3.
	for _, lm := range landmarks[:len(landmarks)-2] {
		w.SetPairBlackhole(lm.ID, target.ID, true)
	}
	_, err := loc.LocalizeContext(ctx, target.Name)
	if err == nil {
		t.Fatal("2 answering landmarks should fail the default quorum of 3")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("quorum failure error should say so, got: %v", err)
	}

	// A caller that accepts 2 landmarks gets a degraded answer instead.
	res, err := loc.LocalizeContext(ctx, target.Name, WithMinLandmarks(2))
	if err != nil {
		t.Fatalf("quorum 2 with 2 answering landmarks: %v", err)
	}
	if !res.Degraded {
		t.Fatal("partial-evidence result not marked degraded")
	}

	// And a strict caller fails on a single missing landmark.
	for _, lm := range landmarks[1 : len(landmarks)-2] {
		w.SetPairBlackhole(lm.ID, target.ID, false)
	}
	if _, err := loc.LocalizeContext(ctx, target.Name, WithMinLandmarks(len(landmarks))); err == nil {
		t.Fatal("full-quorum caller should error when any landmark fails")
	}
}

// plantPinger answers every ping from src to dst with a train whose first
// sample is v — a custom Prober gone wrong — and passes the rest through.
type plantPinger struct {
	probe.Prober
	src, dst string
	v        float64
}

func (p plantPinger) Ping(src, dst string, n int) ([]float64, error) {
	samples, err := p.Prober.Ping(src, dst, n)
	if err == nil && src == p.src && dst == p.dst {
		samples[0] = p.v
	}
	return samples, err
}

// TestNaNPingDegradesLikeABlackhole: a landmark whose ping train carries
// a NaN or a zero is a failed landmark, named in the provenance, and the
// answer is the one the same landmark gives when its path to the target
// is blackholed.
func TestNaNPingDegradesLikeABlackhole(t *testing.T) {
	for _, v := range []float64{math.NaN(), 0} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			w, s, _, landmarks, target := degradedFixture(t, 3)
			ctx := context.Background()
			bad := landmarks[2]

			res, err := NewLocalizer(plantPinger{probe.NewSimProber(w), bad.Name, target.Name, v}, s, Config{}).LocalizeContext(ctx, target.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.Provenance == nil || len(res.Provenance.Failures) != 1 || res.Provenance.Failures[0].Landmark != bad.Inst {
				t.Fatalf("%v ping from %s: degraded %v, provenance %+v; want %s as the one failure", v, bad.Inst, res.Degraded, res.Provenance, bad.Inst)
			}

			w.SetPairBlackhole(bad.ID, target.ID, true)
			want, err := NewLocalizer(probe.NewSimProber(w), s, Config{}).LocalizeContext(ctx, target.Name)
			if err != nil {
				t.Fatal(err)
			}
			if res.Region == nil || res.Point != want.Point || res.AreaKm2 != want.AreaKm2 || !reflect.DeepEqual(res.Region, want.Region) {
				t.Errorf("%v ping answers %v/%v km², blackhole %v/%v km²", v, res.Point, res.AreaKm2, want.Point, want.AreaKm2)
			}
		})
	}
}

// tracerouteFailer passes pings through but fails every traceroute —
// the shape of an ICMP-filtered path that still answers echo.
type tracerouteFailer struct {
	probe.Prober
}

func (f tracerouteFailer) Traceroute(src, dst string) ([]probe.Hop, error) {
	return nil, probe.ErrUnreachable
}

// TestRouterSourceSkipsFailedTraceroutes: traceroute failures are a
// skip-with-reason in the router source's report, never a request
// abort.
func TestRouterSourceSkipsFailedTraceroutes(t *testing.T) {
	w, s, _, _, target := degradedFixture(t, 3)
	loc := NewLocalizer(tracerouteFailer{Prober: probe.NewSimProber(w)}, s, Config{})
	res, err := loc.LocalizeContext(context.Background(), target.Name, WithExplain())
	if err != nil {
		t.Fatalf("traceroute failures must not abort the request: %v", err)
	}
	if res.Degraded {
		t.Fatal("router-evidence loss alone should not mark the result degraded")
	}
	var routerRep *SourceReport
	for i, rep := range res.Provenance.Sources {
		if rep.Source == SourceRouter {
			routerRep = &res.Provenance.Sources[i]
		}
	}
	if routerRep == nil {
		t.Fatal("no router source report in provenance")
	}
	if routerRep.Constraints != 0 {
		t.Fatalf("router source contributed %d constraints through a failing prober", routerRep.Constraints)
	}
	if routerRep.Skipped != "all traceroutes failed" {
		t.Fatalf("router skip reason = %q, want %q", routerRep.Skipped, "all traceroutes failed")
	}
	if len(routerRep.Failures) == 0 {
		t.Fatal("router report should name the landmarks whose traceroutes failed")
	}
	for _, f := range routerRep.Failures {
		if !strings.HasPrefix(f.Reason, "traceroute:") {
			t.Errorf("router failure reason %q should be traceroute-scoped", f.Reason)
		}
	}
}

// TestHintSourceSkipReasons: the hint source reports why it contributed
// nothing instead of failing silently.
func TestHintSourceSkipReasons(t *testing.T) {
	p, lms, target := testDeployment(t, 3, 0)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{DisableWhois: true})
	res, err := loc.LocalizeContext(context.Background(), target.Name, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Provenance.Sources {
		if rep.Source != SourceHint {
			continue
		}
		if rep.Skipped != "whois disabled by config, no hints supplied" {
			t.Fatalf("hint skip reason = %q", rep.Skipped)
		}
		return
	}
	t.Fatal("no hint source report in provenance")
}
