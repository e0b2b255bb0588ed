package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"octant/internal/netsim"
	"octant/internal/probe"
)

// pinnedSurvey is the survey testdata/survey_v1.json was written from:
// the first eight hosts of the seed-1 world, surveyed, then rebuilt once
// with landmark 2's whole row 12 ms slower and only landmark 2 marked
// dirty — so every other landmark's calibration lags the matrix on
// column 2, the case the format stores sample sets separately for.
func pinnedSurvey(t *testing.T) *Survey {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	var lms []Landmark
	for _, h := range w.HostNodes()[:8] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(probe.NewSimProber(w), lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	rtt := make([][]float64, n)
	for i := range rtt {
		rtt[i] = append([]float64(nil), s.RTT[i]...)
	}
	const d = 2
	for j := 0; j < n; j++ {
		if j != d {
			rtt[d][j] += 12
			rtt[j][d] += 12
		}
	}
	dirty := make([]bool, n)
	dirty[d] = true
	next, _, err := RebuildSurvey(s, rtt, dirty, 1)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestSnapshotFormatPinned holds the on-disk format and the numbers in it
// still: testdata/survey_v1.json was written by WriteSnapshot at commit
// 16ee79b (the last before the survey pipeline was folded into fit), and
// both a reload of it and a rebuild of its survey from the simulator must
// serialize to the same bytes.
func TestSnapshotFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/survey_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Survey{"reloaded": loaded, "rebuilt from the simulator": pinnedSurvey(t)} {
		var got bytes.Buffer
		if err := s.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s survey does not serialize to testdata/survey_v1.json (%d vs %d bytes)", name, got.Len(), len(want))
		}
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
