package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// TestSnapshotFormatPinned holds the on-disk format and the numbers in it
// still. testdata/survey_v1.json was written by WriteSnapshot at commit
// 16ee79b from the first eight hosts of the seed-1 world, surveyed, then
// rebuilt by the incremental path later removed: landmark 2's whole row
// 12 ms slower, only landmark 2 refitted, so every other landmark's
// calibration lags the matrix on column 2 — the case the format stores
// sample sets separately for. A reload must serialize to the same bytes,
// and a fresh survey of the same hosts must reproduce the file's κ, its
// matrix (row and column 2 probed + 12 ms), and every height and
// calibration sample set but landmark 2's.
func TestSnapshotFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/survey_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := loaded.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("reloaded survey does not serialize to testdata/survey_v1.json (%d vs %d bytes)", got.Len(), len(want))
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
	if fresh.Kappa != loaded.Kappa {
		t.Errorf("κ = %v, file holds %v", fresh.Kappa, loaded.Kappa)
	}
	for i := range fresh.RTT {
		for j, v := range fresh.RTT[i] {
			if i != j && (i == d || j == d) {
				v += 12
			}
			if v != loaded.RTT[i][j] {
				t.Errorf("rtt[%d][%d] = %v, file holds %v", i, j, v, loaded.RTT[i][j])
			}
		}
		if i == d {
			continue
		}
		if fresh.Heights[i] != loaded.Heights[i] {
			t.Errorf("height %d = %v, file holds %v", i, fresh.Heights[i], loaded.Heights[i])
		}
		if !reflect.DeepEqual(fresh.Calibs[i].Samples, loaded.Calibs[i].Samples) {
			t.Errorf("calibration %d (%s) samples differ from the file's", i, fresh.Landmarks[i].Name)
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
