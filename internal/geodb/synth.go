package geodb

import (
	"math"
	"math/rand/v2"
	"time"

	"octant/internal/netsim"
)

// SynthOpts controls synthetic database generation.
type SynthOpts struct {
	// Seed keys the generator's deterministic randomness.
	Seed uint64
	// RadiusKm is the stated precision written into every record
	// (default 40).
	RadiusKm float64
	// WrongFrac is the fraction of records pointing at a far-away city
	// (≥ 1500 km) — reassigned address blocks the database never
	// re-verified.
	WrongFrac float64
	// StaleFrac is the fraction of records that are old: their AsOf is
	// staleAge before the base date and their claimed position has
	// drifted by staleOffsetKm — the Longitudinal Geo-DB failure mode the
	// composite's decay is for.
	StaleFrac float64
	// AsOf is the base date written into fresh records (default
	// 2026-01-01 UTC, so generation is deterministic).
	AsOf time.Time
}

// The synthetic records' fixed shape.
const (
	// offsetKm bounds how far a correct record's claimed position is
	// displaced from the host's true position (city-granular precision,
	// matching the simulated WHOIS registry).
	offsetKm float64 = 18
	// staleAge is how far in the past stale records are dated.
	staleAge = 3 * 365 * 24 * time.Hour
	// staleOffsetKm is how far stale records' positions have drifted.
	staleOffsetKm float64 = 300
)

func (o *SynthOpts) fillDefaults() {
	if o.RadiusKm == 0 {
		o.RadiusKm = 40
	}
	if o.AsOf.IsZero() {
		o.AsOf = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
}

// NewSynth builds a static provider covering every host in a simulated
// world, keyed by both DNS name and IP. Record quality follows opts:
// correct records are city-granular (small random offset), a WrongFrac
// slice points at far-away cities, and a StaleFrac slice is old and
// drifted. Deterministic given (world, opts).
func NewSynth(w *netsim.World, opts SynthOpts) *Static {
	opts.fillDefaults()
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9e0db))
	s := NewStatic("synth")
	for _, id := range w.Hosts {
		n := w.NodeByID(id)
		bearing := rng.Float64() * 2 * math.Pi
		rec := Record{
			Loc:      n.Loc.Destination(bearing, 2+rng.Float64()*(offsetKm-2)),
			RadiusKm: opts.RadiusKm,
			AsOf:     opts.AsOf,
			Source:   "synth",
		}
		switch r := rng.Float64(); {
		case r < opts.WrongFrac:
			// Reassigned block: the record claims a city ≥ 1500 km away.
			far := farCities(n, 1500)
			if len(far) > 0 {
				rec.Loc = far[rng.IntN(len(far))].Loc()
				rec.Source = "synth-wrong"
			}
		case r < opts.WrongFrac+opts.StaleFrac:
			// Old record: dated staleAge back, position drifted.
			rec.AsOf = opts.AsOf.Add(-staleAge)
			rec.Loc = n.Loc.Destination(rng.Float64()*2*math.Pi, staleOffsetKm)
			rec.Source = "synth-stale"
		}
		s.Add(n.Name, rec)
		s.Add(n.IP, rec)
	}
	return s
}

// farCities lists POP cities at least minKm from the node, in table order
// (deterministic indexing).
func farCities(n *netsim.Node, minKm float64) []netsim.City {
	var out []netsim.City
	for _, c := range netsim.POPCities {
		if n.Loc.DistanceKm(c.Loc()) >= minKm {
			out = append(out, c)
		}
	}
	return out
}
