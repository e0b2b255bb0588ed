package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// The measurement scheduler's fan-out width must be invisible in results:
// for any world state — healthy or faulted — a localizer fanning probes
// out must produce answers bit-identical to a one-worker scheduler (one
// train at a time, landmark order) and to the plain Prober.Ping loops
// below, which touch no scheduler at all, including the order of named
// failures in provenance.

// plainRTTs is the independent measurement oracle: one Ping and min-filter
// per landmark, in landmark order, NaN slots and named failures for the
// landmarks that did not answer.
func plainRTTs(p probe.Prober, s *Survey, target string, probes int) ([]float64, []ProbeFailure) {
	rtts := make([]float64, s.N())
	var failures []ProbeFailure
	for i, lm := range s.Landmarks {
		samples, err := p.Ping(lm.Addr, target, probes)
		if err == nil {
			if rtts[i], err = probe.MinRTT(samples); err == nil {
				continue
			}
		}
		rtts[i] = math.NaN()
		failures = append(failures, ProbeFailure{Landmark: lm.Name, Reason: err.Error()})
	}
	return rtts, failures
}

// sameRTTs compares RTT vectors slot by slot with NaN slots matching
// (DeepEqual cannot: NaN != NaN).
func sameRTTs(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: RTT vector lengths: %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("%s: RTT slot %d: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestParallelSerialLocalizeParity: healthy-path bit-identity across
// several targets, both result geometry and RTT vectors.
func TestParallelSerialLocalizeParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 11})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for _, h := range hosts[4:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewLocalizer(p, s, Config{})
	serial := NewLocalizer(p, s, Config{MeasureWorkers: 1})
	ctx := context.Background()

	for _, target := range hosts[:4] {
		pr, err := parallel.LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("parallel %s: %v", target.Name, err)
		}
		sr, err := serial.LocalizeContext(ctx, target.Name)
		if err != nil {
			t.Fatalf("serial %s: %v", target.Name, err)
		}
		sameResult(t, target.Name, pr, sr)
		plain, failures := plainRTTs(p, s, target.Name, parallel.Cfg.Probes)
		if len(failures) > 0 {
			t.Fatalf("plain loop %s: %+v", target.Name, failures)
		}
		sameRTTs(t, target.Name+" vs plain loop", pr.RTTs, plain)
	}
}

// TestParallelSerialDegradedParity: with landmark→target paths
// blackholed, the parallel path must name the exact same failure set, in
// the same (landmark) order, with the same reasons — the provenance
// contract degraded-mode consumers and runbooks key on.
func TestParallelSerialDegradedParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 5})
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
	// Down a scattered, non-contiguous fifth of the landmark set so slot
	// order and failure order can disagree if the fan-out got it wrong.
	for i, h := range hosts[1:] {
		if i%5 == 2 {
			w.SetPairBlackhole(h.ID, target.ID, true)
		}
	}

	parallel := NewLocalizer(p, s, Config{})
	serial := NewLocalizer(p, s, Config{MeasureWorkers: 1})
	ctx := context.Background()

	pr, err := parallel.LocalizeContext(ctx, target.Name, WithExplain())
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	sr, err := serial.LocalizeContext(ctx, target.Name, WithExplain())
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if !pr.Degraded || !sr.Degraded {
		t.Fatalf("degraded flags: parallel=%v serial=%v, want both true", pr.Degraded, sr.Degraded)
	}
	if pr.Provenance == nil || sr.Provenance == nil {
		t.Fatal("missing provenance")
	}
	if !reflect.DeepEqual(pr.Provenance.Failures, sr.Provenance.Failures) {
		t.Errorf("failure lists diverge:\nparallel: %+v\nserial:   %+v",
			pr.Provenance.Failures, sr.Provenance.Failures)
	}
	plain, plainFailures := plainRTTs(p, s, target.Name, parallel.Cfg.Probes)
	if !reflect.DeepEqual(pr.Provenance.Failures, plainFailures) {
		t.Errorf("failure lists diverge:\nparallel:   %+v\nplain loop: %+v",
			pr.Provenance.Failures, plainFailures)
	}
	// sameResult's DeepEqual can't compare degraded RTT vectors — failed
	// slots hold NaN — so compare them slot-wise, then the rest.
	sameRTTs(t, "parallel vs serial", pr.RTTs, sr.RTTs)
	sameRTTs(t, "parallel vs plain loop", pr.RTTs, plain)
	pr.RTTs, sr.RTTs = nil, nil
	sameResult(t, target.Name, pr, sr)
}

// TestSurveyWorkersParity: the O(k²) pairwise survey matrix, measured
// through the scheduler's concurrent pair sweep, must equal a plain
// sequential loop pair by pair; heights and κ are functions of it.
func TestSurveyWorkersParity(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 9})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for _, h := range hosts[2:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	par, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	// The plain pairwise loop, no scheduler: every (i, j) once, in order.
	for i := range lms {
		for j := i + 1; j < len(lms); j++ {
			samples, err := p.Ping(lms[i].Addr, lms[j].Addr, par.Probes)
			if err != nil {
				t.Fatal(err)
			}
			min, err := probe.MinRTT(samples)
			if err != nil {
				t.Fatal(err)
			}
			if par.RTT[i][j] != min || par.RTT[j][i] != min {
				t.Fatalf("pair (%d,%d): survey %v/%v, plain loop %v", i, j, par.RTT[i][j], par.RTT[j][i], min)
			}
		}
	}
}

// slowProber stretches every ping so a cancellation lands mid-fan-out.
type slowProber struct {
	probe.Prober
	delay time.Duration
}

func (p slowProber) Ping(src, dst string, n int) ([]float64, error) {
	time.Sleep(p.delay)
	return p.Prober.Ping(src, dst, n)
}

// TestLocalizeCancelMidFanout: a context cancelled while the landmark
// fan-out is on the wire aborts the request with the context's error —
// promptly, not after the full landmark walk.
func TestLocalizeCancelMidFanout(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 3})
	raw := probe.NewSimProber(w)
	hosts := w.HostNodes()
	target := hosts[0]
	var lms []Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(raw, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(slowProber{Prober: raw, delay: 20 * time.Millisecond}, s, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = loc.LocalizeContext(ctx, target.Name)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Serialized, the walk would take landmarks × 20 ms (≈ 1 s); the
	// abort must only drain the trains already in flight.
	if budget := 500 * time.Millisecond; elapsed > budget {
		t.Errorf("cancelled localization took %v, want < %v", elapsed, budget)
	}
}
