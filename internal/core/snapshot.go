package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"octant/internal/calib"
)

// Survey snapshots let a daemon restart warm: the O(n²) inter-landmark
// probing and calibration that NewSurvey performs is captured once and
// reloaded from disk, and the reloaded survey is bit-identical in every
// localization-visible way (RTTs, heights, κ, calibration curves, epoch).
//
// The format is versioned JSON. Measurement state is stored exactly —
// Go's float64 JSON round-trip is lossless (shortest-representation
// encoding) — and the fitted calibration curves are NOT stored: each
// calibration's sample set is, and the curves are refitted on load.
// calib.New is deterministic, so the refit reproduces the original hulls
// and blend parameters exactly, and the snapshot stays robust to internal
// calibration-representation changes. Per-landmark sample sets are stored
// separately from the RTT matrix because they need not match it: every
// survey this version fits derives them from the matrix (Survey.fit), but
// older versions refreshed incrementally and wrote snapshots whose sample
// latencies lag the matrix on the columns of landmarks refreshed later
// (testdata/survey_v1.json is one). Those load as written.

// snapshotVersion is bumped on incompatible format changes.
const snapshotVersion = 1

// surveySnapshot is the on-disk shape of a Survey.
type surveySnapshot struct {
	Version       int              `json:"version"`
	Epoch         uint64           `json:"epoch"`
	Kappa         float64          `json:"kappa"`
	UseHeights    bool             `json:"use_heights"`
	Probes        int              `json:"probes"`
	Landmarks     []Landmark       `json:"landmarks"`
	RTT           [][]float64      `json:"rtt"`
	Heights       []float64        `json:"heights"`
	CalibOpts     snapshotCalib    `json:"calib_opts"`
	CalibSamples  [][]calib.Sample `json:"calib_samples"`
	GlobalSamples []calib.Sample   `json:"global_samples"`
}

// snapshotCalib is the on-disk shape of the calibration options. Format 1
// also carries a sentinel latency, always 0: calib places the sentinel at
// 4ρ.
type snapshotCalib struct {
	CutoffPercentile  float64
	SentinelLatencyMs float64
}

// WriteSnapshot serializes the survey to w in the versioned JSON snapshot
// format.
func (s *Survey) WriteSnapshot(w io.Writer) error {
	snap := surveySnapshot{
		Version:       snapshotVersion,
		Epoch:         s.Epoch,
		Kappa:         s.Kappa,
		UseHeights:    s.UseHeights,
		Probes:        s.Probes,
		Landmarks:     s.Landmarks,
		RTT:           s.RTT,
		Heights:       s.Heights,
		CalibOpts:     snapshotCalib{CutoffPercentile: s.calibCutoff()},
		CalibSamples:  make([][]calib.Sample, len(s.Calibs)),
		GlobalSamples: s.Global.Samples,
	}
	for i, c := range s.Calibs {
		snap.CalibSamples[i] = c.Samples
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// ReadSnapshot deserializes a survey written by WriteSnapshot, refitting
// the calibrations from their stored sample sets — as written, so a
// snapshot from an older version whose sample latencies lag the matrix
// loads with those latencies. The result is immutable and ready to
// serve, exactly like a freshly probed survey.
func ReadSnapshot(r io.Reader) (*Survey, error) {
	var snap surveySnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding survey snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: survey snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	// A snapshot is outside input — a hand-edited file, a half-finished
	// /v1/survey/install — so everything a probed survey holds by
	// construction is checked here. The comparisons are written so that
	// NaN fails them.
	if err := CheckMesh(snap.Landmarks); err != nil {
		return nil, fmt.Errorf("core: survey snapshot: %w", err)
	}
	n := len(snap.Landmarks)
	if len(snap.RTT) != n || len(snap.Heights) != n || len(snap.CalibSamples) != n {
		return nil, fmt.Errorf("core: survey snapshot dimensions disagree (%d landmarks, %d rtt rows, %d heights, %d calibrations)",
			n, len(snap.RTT), len(snap.Heights), len(snap.CalibSamples))
	}
	if snap.CalibOpts.SentinelLatencyMs != 0 {
		return nil, fmt.Errorf("core: survey snapshot sentinel latency %v ms, want 0 (the sentinel sits at 4ρ)", snap.CalibOpts.SentinelLatencyMs)
	}
	if snap.Probes <= 0 {
		return nil, fmt.Errorf("core: survey snapshot probes = %d is not a valid sample count", snap.Probes)
	}
	if !(snap.Kappa > 0) || math.IsInf(snap.Kappa, 1) {
		return nil, fmt.Errorf("core: survey snapshot kappa = %v is not a valid inflation factor", snap.Kappa)
	}
	for i, row := range snap.RTT {
		if len(row) != n {
			return nil, fmt.Errorf("core: survey snapshot rtt row %d has %d cols, want %d", i, len(row), n)
		}
		if h := snap.Heights[i]; !(h >= 0) || math.IsInf(h, 1) {
			return nil, fmt.Errorf("core: survey snapshot heights[%d] = %v is not a valid height", i, h)
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
		Heights:    snap.Heights,
		Kappa:      snap.Kappa,
		UseHeights: snap.UseHeights,
		Probes:     snap.Probes,
		Calibs:     make([]*calib.Calibration, n),
	}
	opts := calib.Options{CutoffPercentile: snap.CalibOpts.CutoffPercentile}
	for i, samples := range snap.CalibSamples {
		c, err := calib.New(samples, opts)
		if err != nil {
			return nil, fmt.Errorf("core: refitting calibration %d (%s): %w", i, snap.Landmarks[i].Name, err)
		}
		s.Calibs[i] = c
	}
	// Each calibration holds its landmark's n−1 samples against the other
	// landmarks' distances, in landmark order, and the global pool is
	// their concatenation: only the latencies may lag the matrix. (After
	// the refits, so a sample calib.New refuses is reported as such.)
	if len(snap.GlobalSamples) != n*(n-1) {
		return nil, fmt.Errorf("core: survey snapshot global_samples holds %d samples, want %d", len(snap.GlobalSamples), n*(n-1))
	}
	for i, samples := range snap.CalibSamples {
		if len(samples) != n-1 {
			return nil, fmt.Errorf("core: survey snapshot calib_samples[%d] holds %d samples, want %d", i, len(samples), n-1)
		}
		for k, smp := range samples {
			j := k // landmark i skips itself
			if k >= i {
				j++
			}
			if want := snap.Landmarks[i].Loc.DistanceKm(snap.Landmarks[j].Loc); smp.DistanceKm != want {
				return nil, fmt.Errorf("core: survey snapshot calib_samples[%d][%d] distance %v km, want %v (landmark %d to %d)", i, k, smp.DistanceKm, want, i, j)
			}
			if g := i*(n-1) + k; snap.GlobalSamples[g] != smp {
				return nil, fmt.Errorf("core: survey snapshot global_samples[%d] = %+v, want calib_samples[%d][%d] = %+v", g, snap.GlobalSamples[g], i, k, smp)
			}
		}
	}
	g, err := calib.New(snap.GlobalSamples, opts)
	if err != nil {
		return nil, fmt.Errorf("core: refitting global calibration: %w", err)
	}
	s.Global = g
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
