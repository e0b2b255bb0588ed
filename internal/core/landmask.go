package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"octant/internal/geo"
	"octant/internal/lru"
)

// The §2.5 ocean/land mask is a fixed input: the same coarse landmass
// polygons, projected once per survey, rasterized at whatever cell size
// the solver is using. Before this cache existed every solver pass
// re-rasterized the polygons from scratch — twice per localization
// (coarse + fine pass) and once more for every target in a batch, all
// producing near-identical masks.
//
// LandMaskCache rasterizes each (land-region set, cell size) pair once
// onto a master lattice covering the land bounding box, then answers any
// solve grid at that cell size by sampling the master. Combined with the
// solver quantizing coarse-pass cell sizes onto the {FineCellKm · 2^k}
// lattice, the handful of masters built for the first target serve every
// subsequent pass and every other target sharing the Survey.

// maxMasterCells bounds one master mask; a region set whose bounding box
// exceeds this at the requested resolution is not cached (the solver falls
// back to direct rasterization).
const maxMasterCells = 1 << 23

// defaultMaskCap is how many (region set, cell size) masters are retained.
const defaultMaskCap = 16

// maskKey fingerprints a land-region set at one cell size. The regions are
// already projected, so the projection's identity is captured by the
// region geometry itself: ring/vertex counts plus the exact bounding box.
type maskKey struct {
	cellKm                 float64
	nRegions, nVerts       int
	minX, minY, maxX, maxY float64
}

// maskEntry is one rasterized master; once built it is immutable.
type maskEntry struct {
	once sync.Once
	lat  *geo.MaskLattice
}

// landKey is the cell-size-independent part of a maskKey, remembered for
// the region set it was computed from. Land outlines are projected once
// per survey and handed to every solve as the same slice of the same
// regions, so fingerprinting the set again on each lookup (a walk over
// every vertex) bought nothing.
type landKey struct {
	regions []*geo.Region // the set fingerprinted, compared by identity
	key     maskKey       // cellKm unset
	ok      bool
}

// LandMaskCache caches rasterized land masks across solver passes and
// across localizations sharing a Survey, and keeps their solves' scratch
// (takeScratch). Safe for concurrent use; the batch engine's workers all
// hit the one cache their shared Localizer carries. A nil *LandMaskCache is
// valid and caches nothing.
type LandMaskCache struct {
	// mu makes get-or-insert one step, so each master is built once.
	mu      sync.Mutex
	masters *lru.Cache[maskKey, *maskEntry]
	// oversized counts lookups refused before the cache: a miss, but not
	// the cache's.
	oversized atomic.Uint64
	lastKey   atomic.Pointer[landKey]
	solver    solverCounters
	free      chan *scratchPair
}

// scratchPair is what one solve draws its two grid passes from.
type scratchPair struct{ coarse, fine geo.Scratch }

// NewLandMaskCache returns an empty cache retaining up to 16 masters and
// up to defaultFusedWorkers idle scratch pairs, one a default batch worker.
func NewLandMaskCache() *LandMaskCache {
	return &LandMaskCache{masters: lru.New[maskKey, *maskEntry](defaultMaskCap, 0), free: make(chan *scratchPair, defaultFusedWorkers)}
}

// takeScratch returns an idle scratch pair from the free list, or a fresh
// one when none is idle or c is nil. What the list retains is bounded by its
// capacity times the largest pair one solve draws.
func (c *LandMaskCache) takeScratch() *scratchPair {
	if c != nil {
		select {
		case sc := <-c.free:
			return sc
		default:
		}
	}
	return new(scratchPair)
}

// putScratch hands a pair back to the free list, dropping it when the list
// is full or c is nil.
func (c *LandMaskCache) putScratch(sc *scratchPair) {
	if c != nil {
		select {
		case c.free <- sc:
		default:
		}
	}
}

// LandMaskStats is a snapshot of cache effectiveness, surfaced through
// batch.Stats and octant-serve /v1/stats.
type LandMaskStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Stats returns the cache's hit/miss counters and resident master count.
func (c *LandMaskCache) Stats() LandMaskStats {
	if c == nil {
		return LandMaskStats{}
	}
	hits, misses := c.masters.Counters()
	return LandMaskStats{Hits: hits, Misses: misses + c.oversized.Load(), Entries: c.masters.Len()}
}

// SolverStats counts what the raster solver's passes did, surfaced beside
// LandMaskStats. The counters ride the LandMaskCache because that is the
// one piece of state every solve against a Survey already shares.
type SolverStats struct {
	// Passes counts grid passes (two per refined solve).
	Passes uint64 `json:"passes"`
	// CensusUnderflows counts passes whose level walk outran the fused
	// kernel's top-of-range table and fell back to a full census. Zero on
	// serving configurations; a rising count is the slow path coming back.
	CensusUnderflows uint64 `json:"census_underflows"`
	// CoarseTraces counts solves that had to trace the coarse pass after
	// all, because the fine pass was declined or came back empty.
	CoarseTraces uint64 `json:"coarse_traces"`
	// MaxWalkDepth is the deepest any level walk went below the top level.
	MaxWalkDepth uint64 `json:"max_walk_depth"`
	// GeneralFills counts constraints rasterized through the edge table
	// because their region is not a single two-turn ring. Disks never are.
	GeneralFills uint64 `json:"general_fills"`
	// RowsResolved of RowsTotal grid rows: the kernel skips the others, whose
	// weight bound cannot reach the level it returns.
	RowsResolved uint64 `json:"rows_resolved"`
	RowsTotal    uint64 `json:"rows_total"`
}

type solverCounters struct {
	passes, underflows, coarseTraces, maxDepth, generalFills, rows, rowsTotal atomic.Uint64
}

// SolverStats returns the solver counters of every solve that was handed
// this cache.
func (c *LandMaskCache) SolverStats() SolverStats {
	if c == nil {
		return SolverStats{}
	}
	return SolverStats{
		Passes:           c.solver.passes.Load(),
		CensusUnderflows: c.solver.underflows.Load(),
		CoarseTraces:     c.solver.coarseTraces.Load(),
		MaxWalkDepth:     c.solver.maxDepth.Load(),
		GeneralFills:     c.solver.generalFills.Load(),
		RowsResolved:     c.solver.rows.Load(),
		RowsTotal:        c.solver.rowsTotal.Load(),
	}
}

func (c *LandMaskCache) countPass(top geo.TopLevel, gridRows int) {
	if c == nil {
		return
	}
	c.solver.passes.Add(1)
	c.solver.rows.Add(uint64(top.Rows))
	c.solver.rowsTotal.Add(uint64(gridRows))
	if top.Underflow {
		c.solver.underflows.Add(1)
	}
	for d := uint64(top.Depth); ; {
		old := c.solver.maxDepth.Load()
		if d <= old || c.solver.maxDepth.CompareAndSwap(old, d) {
			return
		}
	}
}

func (c *LandMaskCache) countRoute(f *geo.Fill) {
	if c != nil && f.General() {
		c.solver.generalFills.Add(1)
	}
}

func (c *LandMaskCache) countCoarseTrace() {
	if c != nil {
		c.solver.coarseTraces.Add(1)
	}
}

// keyFor fingerprints the region set at one cell size through the cache's
// one-entry memo; ok is false for an empty set.
func (c *LandMaskCache) keyFor(regions []*geo.Region, cellKm float64) (maskKey, bool) {
	lk := c.lastKey.Load()
	if lk == nil || !slices.Equal(lk.regions, regions) {
		lk = &landKey{regions: slices.Clone(regions)}
		lk.key, lk.ok = keyFor(regions)
		c.lastKey.Store(lk)
	}
	k := lk.key
	k.cellKm = cellKm
	return k, lk.ok
}

// keyFor fingerprints the region set; ok is false for an empty set.
func keyFor(regions []*geo.Region) (maskKey, bool) {
	k := maskKey{nRegions: len(regions)}
	first := true
	for _, r := range regions {
		k.nVerts += r.VertexCount()
		lo, hi, bok := r.BoundingBox()
		if !bok {
			continue
		}
		if first {
			k.minX, k.minY, k.maxX, k.maxY = lo.X, lo.Y, hi.X, hi.Y
			first = false
			continue
		}
		k.minX = math.Min(k.minX, lo.X)
		k.minY = math.Min(k.minY, lo.Y)
		k.maxX = math.Max(k.maxX, hi.X)
		k.maxY = math.Max(k.maxY, hi.Y)
	}
	return k, !first
}

// masterDims is the master lattice size for a key: the bounding box padded
// by one cell on each side, at the key's cell size.
func masterDims(key maskKey) (w, h int) {
	cell := key.cellKm
	w = int(math.Ceil((key.maxX+cell-(key.minX-cell))/cell)) + 1
	h = int(math.Ceil((key.maxY+cell-(key.minY-cell))/cell)) + 1
	return w, h
}

// lattice returns the built master for (regions, g's cell size), creating
// it on first use on g's Scratch. Returns nil when the cache is nil or the
// set is empty or too large to cache — the solver then rasterizes the
// regions directly onto its grid.
func (c *LandMaskCache) lattice(regions []*geo.Region, g *geo.Grid) *geo.MaskLattice {
	if c == nil {
		return nil
	}
	key, ok := c.keyFor(regions, g.CellKm)
	if !ok {
		return nil
	}
	// Dimensions follow from the key alone, so an oversized region set is
	// rejected before it can evict a resident master to make room for an
	// entry whose build is doomed.
	if w, h := masterDims(key); w < 1 || h < 1 || w*h > maxMasterCells {
		c.oversized.Add(1)
		return nil
	}
	c.mu.Lock()
	e, found := c.masters.Get(key)
	if !found {
		e = &maskEntry{}
		c.masters.Put(key, e)
	}
	c.mu.Unlock()
	// Build outside the cache lock (a master rasterization can take
	// milliseconds); per-entry Once keeps concurrent first users from
	// duplicating the work without blocking other keys.
	e.once.Do(func() { e.build(key, regions, g) })
	return e.lat
}

// build rasterizes the master lattice: the region set's bounding box
// padded by one cell, at the key's cell size. lattice has checked the
// dimensions. The sweep's edge table is drawn from g's Scratch.
func (e *maskEntry) build(key maskKey, regions []*geo.Region, g *geo.Grid) {
	cell := key.cellKm
	w, h := masterDims(key)
	// A weightless copy of g — it keeps g's Scratch — carries just the
	// lattice geometry.
	m := *g
	m.Min, m.CellKm, m.W, m.H, m.Weight = geo.V2(key.minX-cell, key.minY-cell), cell, w, h, nil
	e.lat = geo.NewMaskLattice(&m, regions)
}

// Apply writes excluded into every cell of g whose centre does not fall on
// land, resolving membership against the cached master for g's cell size.
// Returns false (grid untouched) when the master cannot be built, in which
// case the caller should rasterize directly.
//
// Each grid cell centre is mapped to the master cell containing it, so
// grids of any origin and extent share one master; the mask can differ
// from a direct rasterization by at most the master-cell quantization of
// the coastline, well inside the deliberate coarseness of the §2.5
// outlines.
//
// Apply is geo.Grid.MaskOff on the master, the mask pass the solver makes
// row by row inside geo.Grid.ResolveTop; the differential oracle and the
// benchmark's replay rung call it.
func (c *LandMaskCache) Apply(g *geo.Grid, regions []*geo.Region, excluded float64) bool {
	e := c.lattice(regions, g)
	if e == nil {
		return false
	}
	g.MaskOff(e, excluded)
	return true
}
