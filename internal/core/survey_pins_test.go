package core

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// TestSnapshotFormatPinned holds both on-disk formats and the numbers in
// them still. testdata/survey_v1.json is format 1, written by
// WriteSnapshot at commit 16ee79b from the first eight hosts of the
// seed-1 world, surveyed, then rebuilt by the incremental path later
// removed: landmark 2's whole row 12 ms slower and only landmark 2
// refitted, so the κ, heights and calibration samples the file stores lag
// its matrix. It must load as its matrix — the survey a fresh survey of
// the same hosts Refits from the file's rtt under the file's epoch — and
// write back as testdata/survey_v2.json, which loads the same and
// round-trips byte for byte. The fresh survey's own matrix, row and
// column 2 probed + 12 ms, must be the file's.
func TestSnapshotFormatPinned(t *testing.T) {
	v1, err := os.ReadFile("testdata/survey_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/survey_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Epoch uint64      `json:"epoch"`
		RTT   [][]float64 `json:"rtt"`
	}
	if err := json.Unmarshal(v1, &file); err != nil {
		t.Fatal(err)
	}

	w := netsim.NewWorld(netsim.Config{Seed: 1})
	var lms []Landmark
	for _, h := range w.HostNodes()[:8] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	fresh, err := NewSurvey(probe.NewSimProber(w), lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	const d = 2
	for i := range fresh.RTT {
		for j, v := range fresh.RTT[i] {
			if i != j && (i == d || j == d) {
				v += 12
			}
			if v != file.RTT[i][j] {
				t.Errorf("rtt[%d][%d] = %v, file holds %v", i, j, v, file.RTT[i][j])
			}
		}
	}
	want, err := fresh.Refit(file.RTT, file.Epoch)
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"survey_v1.json": v1, "survey_v2.json": v2} {
		loaded, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(loaded, want) {
			t.Errorf("%s does not load as the fit of its matrix", name)
		}
		var got bytes.Buffer
		if err := loaded.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), v2) {
			t.Errorf("%s writes back %d bytes that are not testdata/survey_v2.json (%d bytes)", name, got.Len(), len(v2))
		}
	}
}

// TestRebuildValidatesDimensions: Refit refuses a matrix that is not n×n.
func TestRebuildValidatesDimensions(t *testing.T) {
	_, s, _ := snapshotFixture(t, 54)
	if _, err := s.Refit(s.RTT[:2], 1); err == nil {
		t.Error("short rtt accepted")
	}
	ragged := append([][]float64(nil), s.RTT...)
	ragged[1] = ragged[1][:2]
	if _, err := s.Refit(ragged, 1); err == nil {
		t.Error("ragged rtt accepted")
	}
}

// TestSubsetEqualsFreshSurveyOnSameMatrix: Subset and NewSurvey fit the
// same matrix the same way — a subset of every index is the parent
// survey, bit for bit.
func TestSubsetEqualsFreshSurveyOnSameMatrix(t *testing.T) {
	_, s, _ := snapshotFixture(t, 61)
	idx := make([]int, s.N())
	for i := range idx {
		idx[i] = i
	}
	sub, err := s.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kappa != s.Kappa {
		t.Errorf("κ %v != %v", sub.Kappa, s.Kappa)
	}
	if !reflect.DeepEqual(sub.Heights, s.Heights) {
		t.Errorf("heights differ:\n%v\n%v", sub.Heights, s.Heights)
	}
	for i := range s.Calibs {
		if !reflect.DeepEqual(sub.Calibs[i], s.Calibs[i]) {
			t.Errorf("calibration %d (%s) differs", i, s.Landmarks[i].Name)
		}
	}
	if !reflect.DeepEqual(sub.Global, s.Global) {
		t.Error("global calibration differs")
	}
}
