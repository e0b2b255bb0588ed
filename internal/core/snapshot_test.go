package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// snapshotFixture builds a compact survey over a trimmed world.
func snapshotFixture(t *testing.T, seed uint64) (*probe.SimProber, *Survey, string) {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: seed, Sites: netsim.DefaultSites[:16]})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	return p, s, hosts[0].Name
}

// TestSnapshotRoundTripBitIdentical is the acceptance check: a survey
// saved and reloaded from disk is the survey saved, and yields
// bit-identical Localize output — in both height modes and at a
// non-default calibration cutoff, which the snapshot must carry.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	p, s, target := snapshotFixture(t, 41)
	flat, err := NewSurvey(p, s.Landmarks, SurveyOpts{CutoffPercentile: 75})
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range []*Survey{s, flat} {
		orig.Epoch = 7 // non-zero epoch must survive the round trip
		path := filepath.Join(t.TempDir(), "survey.json")
		if err := orig.SaveSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Every field, κ, heights and each calibration's fitted curve
		// included: the reload is the fit of the same matrix.
		if !reflect.DeepEqual(got, orig) {
			t.Fatalf("reloaded survey (use_heights %v) differs from the original", orig.UseHeights)
		}

		want, err := NewLocalizer(p, orig, Config{}).LocalizeContext(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewLocalizer(p, got, Config{}).LocalizeContext(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Point != want.Point || res.AreaKm2 != want.AreaKm2 ||
			res.Weight != want.Weight || res.TargetHeightMs != want.TargetHeightMs {
			t.Errorf("reloaded survey localizes %v/%v, original %v/%v",
				res.Point, res.AreaKm2, want.Point, want.AreaKm2)
		}
	}
}

// TestSnapshotPreservesIncrementalCalibState: a refreshed epoch — Refit
// over a drifted matrix — round-trips through a snapshot with every
// calibration and its epoch intact.
func TestSnapshotPreservesIncrementalCalibState(t *testing.T) {
	_, s, _ := snapshotFixture(t, 42)
	n := s.N()
	rtt := make([][]float64, n)
	for i := range rtt {
		rtt[i] = append([]float64(nil), s.RTT[i]...)
	}
	rtt[0][1] += 40
	rtt[1][0] += 40
	next, err := s.Refit(rtt, 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := next.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range next.Calibs {
		for rttMs := 0.5; rttMs < 120; rttMs *= 2 {
			if a, b := next.Calibs[i].MaxDistanceKm(rttMs), got.Calibs[i].MaxDistanceKm(rttMs); a != b {
				t.Fatalf("calib %d R(%v) %v != %v after the round trip", i, rttMs, a, b)
			}
		}
	}
	if got.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", got.Epoch)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":    "{",
		"bad version": `{"version": 99}`,
		"too few":     `{"version": 1, "landmarks": [{}, {}]}`,
	}
	for name, body := range cases {
		if _, err := ReadSnapshot(strings.NewReader(body)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	_, s, _ := snapshotFixture(t, 43)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncated stream must not yield a survey.
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated snapshot: want error")
	}
	// Nor must a matrix that no probing yields, or a probe count of zero.
	for name, edit := range map[string]func(*surveySnapshot){
		"asymmetric":        func(snap *surveySnapshot) { snap.RTT[0][1] += 1 },
		"non-zero diagonal": func(snap *surveySnapshot) { snap.RTT[2][2] = 1 },
		"negative":          func(snap *surveySnapshot) { snap.RTT[0][1], snap.RTT[1][0] = -1, -1 },
		"ragged":            func(snap *surveySnapshot) { snap.RTT[1] = snap.RTT[1][:2] },
		"short":             func(snap *surveySnapshot) { snap.RTT = snap.RTT[:2] },
		"zero probes":       func(snap *surveySnapshot) { snap.Probes = 0 },
	} {
		var snap surveySnapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		edit(&snap)
		data, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Nor must a well-formed snapshot of a format this version does not know.
	v3 := bytes.Replace(buf.Bytes(), []byte(`{"version":2,`), []byte(`{"version":3,`), 1)
	if _, err := ReadSnapshot(bytes.NewReader(v3)); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("version-3 snapshot: err = %v, want the version refused", err)
	}
}

// overflowingMatrix is a format-2 snapshot over three landmarks whose
// off-diagonal RTTs are all 1e308 ms: every value passes the matrix rules,
// but the heights system's row sums overflow to +Inf.
const overflowingMatrix = `{"version":2,"epoch":0,"use_heights":false,"probes":10,"landmarks":[` +
	`{"Addr":"a","Name":"a","Loc":{"Lat":42.36,"Lon":-71.09}},` +
	`{"Addr":"b","Name":"b","Loc":{"Lat":42.45,"Lon":-76.47}},` +
	`{"Addr":"c","Name":"c","Loc":{"Lat":43.16,"Lon":-77.61}}],` +
	`"rtt":[[0,1e308,1e308],[1e308,0,1e308],[1e308,1e308,0]],"calib_opts":{"CutoffPercentile":90}}`

// TestRefitRefusesNonFiniteHeights: a finite matrix whose heights system
// overflows is refused, not fitted to NaN heights the evidence stage
// would subtract whatever UseHeights says.
func TestRefitRefusesNonFiniteHeights(t *testing.T) {
	_, s, _ := snapshotFixture(t, 45)
	flat := *s
	flat.UseHeights = false
	rtt := make([][]float64, s.N())
	for i := range rtt {
		rtt[i] = make([]float64, s.N())
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = 1e308
			}
		}
	}
	next, err := flat.Refit(rtt, 1)
	if err == nil {
		t.Fatalf("Refit of a 1e308 ms matrix fitted heights %v", next.Heights)
	}
	if !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("err = %v, want a non-finite height refused", err)
	}
}

// TestSnapshotRefusesNonFiniteHeights: ReadSnapshot fits like Refit, so
// the same matrix in a snapshot is refused for the same reason.
func TestSnapshotRefusesNonFiniteHeights(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader(overflowingMatrix)); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("err = %v, want a non-finite height refused", err)
	}
}

// seedOneSurvey surveys the seed-1 world with every host but the first as
// a landmark — 50 of them.
func seedOneSurvey(tb testing.TB) *Survey {
	tb.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	var lms []Landmark
	for _, h := range w.HostNodes()[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(probe.NewSimProber(w), lms, SurveyOpts{UseHeights: true})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSnapshotSizeBudget: a snapshot is its matrix, so the seed-1 world's
// 50 landmarks fit in 64 KB (format 1, which also stored every
// calibration sample, took 363 KB).
func TestSnapshotSizeBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := seedOneSurvey(t).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64<<10 {
		t.Errorf("seed-1 snapshot is %d bytes, budget %d", buf.Len(), 64<<10)
	}
	t.Logf("seed-1 snapshot: %d bytes", buf.Len())
}

// BenchmarkSnapshotRoundtrip times WriteSnapshot + ReadSnapshot of the
// seed-1 survey — what a replica pays to adopt a pushed epoch.
func BenchmarkSnapshotRoundtrip(b *testing.B) {
	s := seedOneSurvey(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := s.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadSnapshot feeds ReadSnapshot hostile bytes — what a half-written
// install or a hand-edited file looks like. It must never panic, and
// whatever it accepts must be a survey the rest of the tree can trust: it
// describes its own mesh (SameMesh, so no NaN coordinate or duplicate
// landmark slipped through), it is the fit of its own matrix (Refit), its
// heights are finite and ≥ 0, and it writes back byte-identical through
// a second round trip. The committed corpus holds a valid three-landmark
// snapshot, shapes that must be rejected (among them a cutoff percentile
// of 150, which calib.New refuses, and a 1e308 ms matrix whose heights
// overflow), format-1 files whose stored samples contradict their
// landmarks or matrix (accepted now, as their matrix), and every input
// that once broke a property.
func FuzzReadSnapshot(f *testing.F) {
	for _, file := range []string{"testdata/survey_v1.json", "testdata/survey_v2.json"} {
		pinned, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pinned)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.SameMesh(s.Landmarks, s.Probes); err != nil {
			t.Fatalf("accepted a survey that is not its own mesh: %v", err)
		}
		if fit, err := s.Refit(s.RTT, s.Epoch); err != nil || !reflect.DeepEqual(fit, s) {
			t.Fatalf("accepted a survey that is not the fit of its own matrix (refit: %v)", err)
		}
		for i, h := range s.Heights {
			if !(h >= 0) || math.IsInf(h, 1) {
				t.Fatalf("accepted height %d = %v", i, h)
			}
		}
		var first, second bytes.Buffer
		if err := s.WriteSnapshot(&first); err != nil {
			t.Fatalf("accepted a survey that does not serialize: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted a survey whose own snapshot is rejected: %v", err)
		}
		if err := again.WriteSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot does not write back byte-identical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
