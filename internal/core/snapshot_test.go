package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"octant/internal/calib"
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
// saved and reloaded from disk yields bit-identical Localize output.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	p, s, target := snapshotFixture(t, 41)
	s.Epoch = 7 // non-zero epoch must survive the round trip

	path := filepath.Join(t.TempDir(), "survey.json")
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if got.Epoch != s.Epoch || got.Kappa != s.Kappa || got.UseHeights != s.UseHeights || got.N() != s.N() {
		t.Fatalf("header fields differ: %+v vs %+v", got.Epoch, s.Epoch)
	}
	for i := range s.RTT {
		for j := range s.RTT[i] {
			if got.RTT[i][j] != s.RTT[i][j] {
				t.Fatalf("rtt[%d][%d] %v != %v", i, j, got.RTT[i][j], s.RTT[i][j])
			}
		}
		if got.Heights[i] != s.Heights[i] {
			t.Fatalf("height[%d] %v != %v", i, got.Heights[i], s.Heights[i])
		}
	}
	// Refitted calibrations must evaluate identically everywhere the
	// solver queries them.
	for i, c := range s.Calibs {
		for rtt := 0.25; rtt < 200; rtt *= 1.7 {
			if a, b := c.MaxDistanceKm(rtt), got.Calibs[i].MaxDistanceKm(rtt); a != b {
				t.Fatalf("calib %d R(%v): %v != %v", i, rtt, a, b)
			}
			if a, b := c.MinDistanceKm(rtt), got.Calibs[i].MinDistanceKm(rtt); a != b {
				t.Fatalf("calib %d r(%v): %v != %v", i, rtt, a, b)
			}
		}
	}

	want, err := NewLocalizer(p, s, Config{}).LocalizeContext(context.Background(), target)
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

// TestSnapshotPreservesIncrementalCalibState: a refreshed epoch — Refit
// over a drifted matrix — round-trips through a snapshot with every
// calibration and its epoch intact. (Snapshots written before a refresh
// refitted the whole survey may hold calibrations that lag the matrix;
// TestSnapshotFormatPinned round-trips one.)
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
	// Format 1 carries a sentinel latency calib no longer reads: any value
	// but the 0 every snapshot is written with is refused, not ignored.
	moved := bytes.Replace(buf.Bytes(), []byte(`"SentinelLatencyMs":0`), []byte(`"SentinelLatencyMs":300`), 1)
	if bytes.Equal(moved, buf.Bytes()) {
		t.Fatal("snapshot carries no sentinel latency")
	}
	if _, err := ReadSnapshot(bytes.NewReader(moved)); err == nil {
		t.Error("snapshot with a 300 ms sentinel: want error")
	}
}

// TestSnapshotRejectsContradictingSamples: a calibration sample whose
// distance is not its landmarks' distance, or a global pool that is not
// the calibrations' samples, contradicts the snapshot's own landmarks and
// is refused by name.
func TestSnapshotRejectsContradictingSamples(t *testing.T) {
	_, s, _ := snapshotFixture(t, 44)
	for name, tc := range map[string]struct {
		edit func(*surveySnapshot)
		want string
	}{
		"moved distance": {func(snap *surveySnapshot) { snap.CalibSamples[3][5].DistanceKm += 1 }, "calib_samples[3][5]"},
		"altered global": {func(snap *surveySnapshot) { snap.GlobalSamples[7].LatencyMs += 1 }, "global_samples[7]"},
	} {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var snap surveySnapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		tc.edit(&snap)
		data, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, tc.want)
		}
	}
}

// sampleRuleViolation reports how s breaks the rules every written
// snapshot keeps: landmark i's calibration holds one sample per other
// landmark, in order, at their distance, and the global pool is the
// calibrations' samples end to end.
func sampleRuleViolation(s *Survey) string {
	var pooled []calib.Sample
	for i, c := range s.Calibs {
		var dists []float64
		for j, lm := range s.Landmarks {
			if j != i {
				dists = append(dists, s.Landmarks[i].Loc.DistanceKm(lm.Loc))
			}
		}
		if len(c.Samples) != len(dists) {
			return fmt.Sprintf("calibration %d holds %d samples for %d peers", i, len(c.Samples), len(dists))
		}
		for k, smp := range c.Samples {
			if smp.DistanceKm != dists[k] {
				return fmt.Sprintf("calibration %d sample %d at %v km, peer at %v km", i, k, smp.DistanceKm, dists[k])
			}
		}
		pooled = append(pooled, c.Samples...)
	}
	if !reflect.DeepEqual(s.Global.Samples, pooled) {
		return "global pool is not the calibrations' samples"
	}
	return ""
}

// FuzzReadSnapshot feeds ReadSnapshot hostile bytes — what a half-written
// install or a hand-edited file looks like. It must never panic, and
// whatever it accepts must be a survey the rest of the tree can trust: it
// describes its own mesh (SameMesh, so no NaN coordinate or duplicate
// landmark slipped through), its samples agree with its landmarks
// (sampleRuleViolation), and it re-serializes to a fixed point. The
// committed corpus holds a valid three-landmark snapshot, shapes that must
// be rejected (among them a cutoff percentile of 150, a negative sample
// latency and a 1e300 km sample distance, which calib.New refuses, and a
// moved sample distance and an altered global sample, which contradict
// the landmarks), and every input that once broke a property.
func FuzzReadSnapshot(f *testing.F) {
	pinned, err := os.ReadFile("testdata/survey_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.SameMesh(s.Landmarks, s.Probes); err != nil {
			t.Fatalf("accepted a survey that is not its own mesh: %v", err)
		}
		if v := sampleRuleViolation(s); v != "" {
			t.Fatalf("accepted samples that contradict the landmarks: %s", v)
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
			t.Fatalf("snapshot is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
