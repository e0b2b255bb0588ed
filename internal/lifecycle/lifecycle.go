// Package lifecycle manages the landmark survey as a versioned,
// refreshable resource instead of a startup constant.
//
// Octant's accuracy rests on per-landmark latency→distance calibrations
// (§2.1–2.2) that the paper recomputes periodically as network conditions
// change. A daemon that builds its Survey once at process start drifts
// stale within hours: routes move, peerings congest, and the convex-hull
// bounds fitted to last night's RTTs stop bounding today's. The Manager
// closes that gap with an epoch-based lifecycle:
//
//   - Each survey generation is an immutable Epoch — the Survey snapshot
//     plus its derived Localizer (projection context, land-mask cache,
//     calibrations).
//   - Refresh reprobes landmark↔landmark RTTs (all pairs, or only pairs
//     touching an explicit scope of suspect landmarks), marks landmarks
//     whose min-RTT moved beyond a drift tolerance as dirty, and refits
//     the next generation from the updated matrix (core.Survey.Refit):
//     κ, every height and every calibration, exactly as core.NewSurvey
//     fits a freshly probed matrix.
//   - The new epoch is published with an atomic RCU-style pointer swap.
//     Readers (the batch engine, octant-serve) borrow one epoch per
//     request via a single atomic load; in-flight requests finish on the
//     epoch they started with, so a swap drops nothing and blocks nobody.
//   - Published epochs can be persisted to disk (survey snapshots) so a
//     restarted daemon starts warm, serving from the last calibration
//     without reprobing the O(n²) landmark mesh.
//
// The v2 request-scoped localization API composes with all of this
// unchanged: per-request options (core.LocalizeOption) tune a request
// without touching the borrowed Localizer, so the manager keeps handing
// out one immutable epoch Localizer per request and the batch engine
// layers its options fingerprint on top of the epoch in its cache keys.
package lifecycle

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/core"
	"octant/internal/measure"
	"octant/internal/probe"
)

// Options tunes the survey lifecycle.
type Options struct {
	// Probes is the ping-sample count per refreshed landmark pair
	// (default 10, matching survey construction).
	Probes int
	// DriftToleranceMs is the minimum |Δ min-RTT| for a reprobed pair to
	// count as drifted (default 0.5 ms). Sub-tolerance wobble keeps the
	// previous value, so measurement jitter alone never churns epochs.
	// Set negative to treat any change as drift.
	DriftToleranceMs float64
	// Interval is Run's periodic full-refresh cadence (0 disables the
	// loop; Refresh stays available on demand).
	Interval time.Duration
	// SnapshotPath, when non-empty, persists every recalibrated epoch
	// the manager publishes, so the daemon can restart warm. The initial
	// epoch is the caller's to persist (it may itself have just been
	// loaded from this very file — rewriting it would be wasted I/O).
	SnapshotPath string
	// OnSwap, when non-nil, observes every published epoch after it
	// became current — the initial epoch with a nil report, refreshed
	// epochs with theirs. Called synchronously; keep it cheap.
	OnSwap func(*Epoch, *RefreshReport)
}

func (o *Options) fillDefaults() {
	if o.Probes == 0 {
		o.Probes = 10
	}
	if o.DriftToleranceMs == 0 {
		o.DriftToleranceMs = 0.5
	}
}

// Epoch is one immutable survey generation plus the serving state derived
// from it. Everything an Epoch references is safe for concurrent readers
// and never mutated after publication; a request that borrowed an Epoch
// may keep using it for its whole lifetime regardless of later swaps.
type Epoch struct {
	Survey    *core.Survey
	Localizer *core.Localizer
	// Published is when this epoch became current.
	Published time.Time
}

// Number returns the epoch's sequence number (Survey.Epoch).
func (e *Epoch) Number() uint64 { return e.Survey.Epoch }

// RefreshReport describes one recalibration round.
type RefreshReport struct {
	// PrevEpoch and Epoch bracket the refresh; they are equal when
	// nothing drifted and no new epoch was published.
	PrevEpoch uint64 `json:"prev_epoch"`
	Epoch     uint64 `json:"epoch"`
	// Swapped reports whether a new epoch was published.
	Swapped bool `json:"swapped"`
	// ProbedPairs is how many landmark pairs were remeasured.
	ProbedPairs int `json:"probed_pairs"`
	// DirtyLandmarks names the landmarks whose measurements drifted
	// beyond tolerance.
	DirtyLandmarks []string `json:"dirty_landmarks,omitempty"`
	// RebuiltCalibs counts per-landmark calibrations refitted: every
	// landmark's on a swap (a refresh refits the whole survey), none
	// otherwise.
	RebuiltCalibs int `json:"rebuilt_calibs"`
	// SnapshotError carries a non-fatal autosave failure ("" if none,
	// or if autosaving is off).
	SnapshotError string `json:"snapshot_error,omitempty"`
	// Installed marks an epoch that was pushed in from a cluster
	// coordinator (Install) rather than probed locally.
	Installed bool `json:"installed,omitempty"`
	// ElapsedMs is the refresh wall time, probing included.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Stats is a point-in-time view of the lifecycle, shaped for the
// octant-serve GET /v1/survey endpoint.
type Stats struct {
	Epoch      uint64  `json:"epoch"`
	Landmarks  int     `json:"landmarks"`
	Kappa      float64 `json:"kappa"`
	UseHeights bool    `json:"use_heights"`
	// EpochAgeS is how long the current epoch has been serving.
	EpochAgeS float64 `json:"epoch_age_s"`
	// Swaps counts epochs published after the initial one.
	Swaps uint64 `json:"swaps"`
	// Refreshes counts completed Refresh rounds (swapped or not).
	Refreshes uint64 `json:"refreshes"`
	// Installs counts epochs adopted from a cluster coordinator's push
	// (a subset of Swaps).
	Installs uint64 `json:"installs,omitempty"`
	// LastRefresh is the most recent refresh round's report (nil before
	// the first).
	LastRefresh *RefreshReport `json:"last_refresh,omitempty"`
	// LastError is the most recent background-refresh failure ("" when
	// the last round succeeded).
	LastError string `json:"last_error,omitempty"`
}

// Manager owns the survey lifecycle: it holds the current epoch, reprobes
// landmark↔landmark RTTs periodically or on demand, refits the survey
// when they drifted (core.Survey.Refit), and publishes each new
// generation with an atomic RCU-style swap.
//
// Readers never lock: Current and CurrentLocalizer are single atomic
// loads, and the Epoch they return is immutable, so a swap neither blocks
// nor invalidates requests in flight — they complete on the epoch they
// borrowed while new requests pick up the new one. Manager implements
// batch.Provider, which is how the serving stack rides along.
type Manager struct {
	prober probe.Prober
	cfg    core.Config
	opts   Options

	// sched fans Refresh's pairwise reprobes out concurrently. It is the
	// manager's own scheduler, never the serving Localizer's, so a
	// refresh's trains are budgeted apart from serving's global and
	// per-landmark caps.
	sched *measure.Scheduler

	cur atomic.Pointer[Epoch]
	// mu serializes writers (Refresh, Install, snapshot autosave);
	// readers don't take it.
	mu sync.Mutex

	swaps      atomic.Uint64
	refreshes  atomic.Uint64
	installs   atomic.Uint64
	lastReport atomic.Pointer[RefreshReport]
	lastErr    atomic.Pointer[string]
}

// New starts a lifecycle around an existing survey — freshly probed by
// core.NewSurvey or reloaded warm from a snapshot; no probing happens
// here. cfg configures the per-epoch Localizers. When Options.Probes is
// unset it defaults to the survey's own per-pair sample count, keeping
// refresh remeasurements min-filter-comparable to the baseline.
func New(p probe.Prober, survey *core.Survey, cfg core.Config, opts Options) *Manager {
	if opts.Probes == 0 && survey.Probes > 0 {
		opts.Probes = survey.Probes
	}
	opts.fillDefaults()
	m := &Manager{prober: p, cfg: cfg, opts: opts, sched: measure.New(measure.Config{Workers: cfg.MeasureWorkers})}
	e := &Epoch{
		Survey:    survey,
		Localizer: core.NewLocalizer(p, survey, cfg),
		Published: time.Now(),
	}
	m.cur.Store(e)
	if opts.OnSwap != nil {
		opts.OnSwap(e, nil)
	}
	return m
}

// NewProbed builds the initial survey by probing (core.NewSurvey) and
// starts a lifecycle around it.
func NewProbed(p probe.Prober, landmarks []core.Landmark, sopts core.SurveyOpts, cfg core.Config, opts Options) (*Manager, error) {
	survey, err := core.NewSurvey(p, landmarks, sopts)
	if err != nil {
		return nil, err
	}
	return New(p, survey, cfg, opts), nil
}

// Current returns the epoch currently serving. The result is immutable
// and remains valid after any number of later swaps.
func (m *Manager) Current() *Epoch { return m.cur.Load() }

// CurrentLocalizer implements batch.Provider: the batch engine borrows
// the current epoch's Localizer once per request.
func (m *Manager) CurrentLocalizer() *core.Localizer { return m.Current().Localizer }

// Refresh remeasures landmark pairs and, if anything drifted beyond
// tolerance, publishes a recalibrated epoch. scope selects which
// landmarks' pairs to reprobe — nil means all — and a scoped refresh
// probes only pairs with at least one endpoint in scope, making
// on-demand recalibration of a few suspect landmarks O(k·n) probes
// instead of O(n²).
//
// A drifted refresh refits the whole survey from the updated matrix
// (core.Survey.Refit), so the new epoch is the survey core.NewSurvey
// would fit from it; a refresh in which every pair held within tolerance
// publishes nothing and leaves the current epoch — and every cache keyed
// by it — untouched. Concurrent Refresh calls serialize; readers are
// never blocked.
func (m *Manager) Refresh(ctx context.Context, scope []int) (*RefreshReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	cur := m.Current()
	s := cur.Survey
	n := s.N()

	inScope := make([]bool, n)
	for _, i := range scope {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("lifecycle: refresh scope index %d out of range [0, %d)", i, n)
		}
		inScope[i] = true
	}

	// Remeasure the in-scope pairs through the manager's scheduler
	// (core.MeasurePairs, the sweep NewSurvey runs); the drift comparison
	// below runs single-threaded, so dirty marking is deterministic.
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if scope == nil || inScope[i] || inScope[j] {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	mins, err := core.MeasurePairs(ctx, m.sched, m.prober, s.Landmarks, pairs, m.opts.Probes)
	if err != nil {
		return nil, err
	}
	tol := math.Max(0, m.opts.DriftToleranceMs)
	newRTT := make([][]float64, n)
	for i := range newRTT {
		newRTT[i] = append([]float64(nil), s.RTT[i]...)
	}
	dirty := make([]bool, n)
	for k, pr := range pairs {
		i, j := pr[0], pr[1]
		if math.Abs(mins[k]-s.RTT[i][j]) > tol {
			newRTT[i][j], newRTT[j][i] = mins[k], mins[k]
			dirty[i], dirty[j] = true, true
		}
	}
	m.refreshes.Add(1)

	report := &RefreshReport{PrevEpoch: s.Epoch, Epoch: s.Epoch, ProbedPairs: len(pairs)}
	for i, d := range dirty {
		if d {
			report.DirtyLandmarks = append(report.DirtyLandmarks, s.Landmarks[i].Name)
		}
	}
	if len(report.DirtyLandmarks) == 0 {
		report.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
		m.lastReport.Store(report)
		return report, nil
	}

	next, err := s.Refit(newRTT, s.Epoch+1)
	if err != nil {
		return nil, err
	}
	report.RebuiltCalibs = n
	m.publish(cur, next, report, start)
	return report, nil
}

// publish makes next the current epoch: the one place an epoch is built,
// persisted, swapped in, counted and announced, for a local refresh and a
// coordinator's install alike. The new Localizer reuses the superseded
// epoch's land-mask masters, name engine and scheduler — the landmarks
// (hence the projection and outlines) are unchanged, so the new epoch
// serves its first solve warm. report is completed here (Epoch, Swapped,
// SnapshotError, ElapsedMs since start) before any observer sees it.
// Callers hold m.mu.
func (m *Manager) publish(cur *Epoch, next *core.Survey, report *RefreshReport, start time.Time) *Epoch {
	e := &Epoch{
		Survey:    next,
		Localizer: core.NewLocalizerReusing(m.prober, next, m.cfg, cur.Localizer),
		Published: time.Now(),
	}
	report.Epoch, report.Swapped = next.Epoch, true
	if m.opts.SnapshotPath != "" {
		if err := next.SaveSnapshotFile(m.opts.SnapshotPath); err != nil {
			report.SnapshotError = err.Error()
		}
	}
	m.cur.Store(e)
	m.swaps.Add(1)
	report.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	m.lastReport.Store(report)
	if m.opts.OnSwap != nil {
		m.opts.OnSwap(e, report)
	}
	return e
}

// Install publishes a coordinator-pushed survey as the current epoch,
// exactly as a refresh publishes one (see publish): in-flight requests
// finish on the epoch they borrowed, new requests pick up the pushed one.
// The survey must describe the same landmark mesh (set, order, positions)
// at the same per-pair probe count, and must carry a newer epoch than the
// one serving; anything else is a configuration error surfaced to the
// coordinator, never adopted silently.
func (m *Manager) Install(survey *core.Survey) (*Epoch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	cur := m.Current()
	if err := survey.SameMesh(cur.Survey.Landmarks, cur.Survey.Probes); err != nil {
		return nil, fmt.Errorf("lifecycle: pushed survey does not match the serving one: %w", err)
	}
	if survey.Epoch <= cur.Survey.Epoch {
		return nil, fmt.Errorf("lifecycle: pushed epoch %d is not newer than serving epoch %d", survey.Epoch, cur.Survey.Epoch)
	}
	m.installs.Add(1)
	return m.publish(cur, survey, &RefreshReport{PrevEpoch: cur.Survey.Epoch, Installed: true}, start), nil
}

// Run refreshes all pairs every Options.Interval until ctx is done. A
// failed round is recorded (Stats.LastError) and the loop keeps going —
// transient probe failures must not kill recalibration for good. Run
// returns immediately when Interval is 0.
func (m *Manager) Run(ctx context.Context) {
	if m.opts.Interval <= 0 {
		return
	}
	ticker := time.NewTicker(m.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_, err := m.Refresh(ctx, nil)
			if ctx.Err() != nil {
				return
			}
			var msg string
			if err != nil {
				msg = err.Error()
			}
			m.lastErr.Store(&msg)
		}
	}
}

// Stats returns a snapshot of the lifecycle's state and counters.
func (m *Manager) Stats() Stats {
	e := m.Current()
	st := Stats{
		Epoch:       e.Survey.Epoch,
		Landmarks:   e.Survey.N(),
		Kappa:       e.Survey.Kappa,
		UseHeights:  e.Survey.UseHeights,
		EpochAgeS:   time.Since(e.Published).Seconds(),
		Swaps:       m.swaps.Load(),
		Refreshes:   m.refreshes.Load(),
		Installs:    m.installs.Load(),
		LastRefresh: m.lastReport.Load(),
	}
	if s := m.lastErr.Load(); s != nil {
		st.LastError = *s
	}
	return st
}
