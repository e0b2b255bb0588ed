package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Survey snapshots let a daemon restart warm: the O(n²) inter-landmark
// probing that NewSurvey performs is captured once and reloaded from disk,
// and the reloaded survey is the one NewSurvey fits from the same matrix —
// RTTs, heights, κ, calibration curves and epoch alike.
//
// The format is versioned JSON and stores only what was measured: the
// landmarks, the RTT matrix (Go's float64 JSON round-trip is lossless),
// the probe count, the height mode and the calibration cutoff. κ, the
// heights and every calibration are functions of those, so ReadSnapshot
// refits them with the same Survey.fit as NewSurvey, Subset and Refit,
// and a snapshot cannot contradict itself. Format 1 also stored the
// fitted values and the calibration samples; a format-1 file decodes into
// the same struct, those fields are ignored, and it loads as its matrix.

// snapshotVersion is the format WriteSnapshot writes; ReadSnapshot also
// reads format 1.
const snapshotVersion = 2

// surveySnapshot is the on-disk shape of a Survey.
type surveySnapshot struct {
	Version    int           `json:"version"`
	Epoch      uint64        `json:"epoch"`
	UseHeights bool          `json:"use_heights"`
	Probes     int           `json:"probes"`
	Landmarks  []Landmark    `json:"landmarks"`
	RTT        [][]float64   `json:"rtt"`
	CalibOpts  snapshotCalib `json:"calib_opts"`
}

// snapshotCalib is the on-disk shape of the calibration options.
type snapshotCalib struct {
	CutoffPercentile float64
}

// WriteSnapshot serializes the survey to w in the versioned JSON snapshot
// format.
func (s *Survey) WriteSnapshot(w io.Writer) error {
	return json.NewEncoder(w).Encode(&surveySnapshot{
		Version:    snapshotVersion,
		Epoch:      s.Epoch,
		UseHeights: s.UseHeights,
		Probes:     s.Probes,
		Landmarks:  s.Landmarks,
		RTT:        s.RTT,
		CalibOpts:  snapshotCalib{CutoffPercentile: s.calibCutoff()},
	})
}

// ReadSnapshot deserializes a survey written by WriteSnapshot (format 2)
// or by an older version (format 1) and fits it from its matrix. The
// result is immutable and ready to serve, exactly like a freshly probed
// survey.
func ReadSnapshot(r io.Reader) (*Survey, error) {
	var snap surveySnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding survey snapshot: %w", err)
	}
	if snap.Version != 1 && snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: survey snapshot version %d, want 1 or %d", snap.Version, snapshotVersion)
	}
	// A snapshot is outside input — a hand-edited file, a half-finished
	// /v1/survey/install — so everything a probed matrix holds by
	// construction is checked here; fit refuses the rest. The comparisons
	// are written so that NaN fails them.
	if err := CheckMesh(snap.Landmarks); err != nil {
		return nil, fmt.Errorf("core: survey snapshot: %w", err)
	}
	n := len(snap.Landmarks)
	if len(snap.RTT) != n {
		return nil, fmt.Errorf("core: survey snapshot dimensions disagree (%d landmarks, %d rtt rows)", n, len(snap.RTT))
	}
	if snap.Probes <= 0 {
		return nil, fmt.Errorf("core: survey snapshot probes = %d is not a valid sample count", snap.Probes)
	}
	for i, row := range snap.RTT {
		if len(row) != n {
			return nil, fmt.Errorf("core: survey snapshot rtt row %d has %d cols, want %d", i, len(row), n)
		}
	}
	for i, row := range snap.RTT { // every row is n wide: rtt[j][i] exists
		for j, v := range row {
			if !(v >= 0) || math.IsInf(v, 1) || v != snap.RTT[j][i] || (i == j && v != 0) {
				return nil, fmt.Errorf("core: survey snapshot rtt[%d][%d] = %v is not a valid RTT (finite, ≥ 0, symmetric, 0 on the diagonal)", i, j, v)
			}
		}
	}
	s := &Survey{
		Epoch:      snap.Epoch,
		Landmarks:  snap.Landmarks,
		RTT:        snap.RTT,
		UseHeights: snap.UseHeights,
		Probes:     snap.Probes,
	}
	if err := s.fit(snap.CalibOpts.CutoffPercentile); err != nil {
		return nil, fmt.Errorf("core: fitting survey snapshot: %w", err)
	}
	return s, nil
}

// SaveSnapshotFile writes the survey snapshot to path atomically (temp
// file + rename), so a crash mid-write never leaves a truncated snapshot
// where a warm start would read it.
func (s *Survey) SaveSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".survey-snapshot-*")
	if err != nil {
		return fmt.Errorf("core: saving survey snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving survey snapshot: %w", err)
	}
	// The rename can reach the disk before the data it names: without the
	// Sync a power cut can leave path naming an empty or partial file — the
	// truncated snapshot the rename exists to rule out.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving survey snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: saving survey snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: saving survey snapshot: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads a survey snapshot from path.
func LoadSnapshotFile(path string) (*Survey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading survey snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}
