// Package geodb defines the pluggable passive-geolocation provider
// interface and the stock providers: a static file-backed table, a
// multi-provider composite with per-provider weights and staleness decay,
// and an LRU lookup cache.
//
// Passive databases are §2.5 exogenous evidence, not answers: the
// Longitudinal Geo-DB literature shows commercial tables drift as
// addresses are reassigned, so every record carries an AsOf date, the
// composite decays a record's weight (and inflates its radius) with age,
// and the core pipeline cross-validates each database disk against the
// speed-of-light bound from measured RTTs before applying it.
package geodb

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"octant/internal/geo"
	"octant/internal/lru"
)

// Record is one provider's claim about an address.
type Record struct {
	// Loc is the claimed position.
	Loc geo.Point
	// RadiusKm is the provider's stated precision: the claim is "within
	// RadiusKm of Loc". Zero means the provider did not state one and the
	// consumer should apply its own default.
	RadiusKm float64
	// AsOf dates the record (when the provider last verified it). The
	// zero time means undated; staleness decay treats undated records as
	// fresh.
	AsOf time.Time
	// Source names where the record came from, for provenance labels.
	Source string
}

// Provider is a passive geolocation database.
//
// Implementations must be safe for concurrent use: the core pipeline
// calls Lookup from many localizations at once.
type Provider interface {
	// Name identifies the provider (cache keys, options fingerprints,
	// provenance).
	Name() string
	// Lookup returns the provider's record for an address, ok=false when
	// it has none.
	Lookup(addr string) (Record, bool)
}

// Weighted is a Provider that also prices its own confidence. The core
// pipeline uses the returned weight (when > 0) in place of its configured
// default; the Composite implements it to express per-provider trust and
// staleness decay.
type Weighted interface {
	Provider
	// LookupWeighted is Lookup plus a confidence weight in (0, 1]. A zero
	// weight means "use your default".
	LookupWeighted(addr string) (Record, float64, bool)
}

// Static is an in-memory address→record table, the file-backed provider.
type Static struct {
	name string
	recs map[string]Record
}

// NewStatic builds an empty static provider.
func NewStatic(name string) *Static {
	return &Static{name: name, recs: make(map[string]Record)}
}

// Add registers (or replaces) the record for an address.
func (s *Static) Add(addr string, rec Record) { s.recs[addr] = rec }

// Len reports how many addresses the table covers.
func (s *Static) Len() int { return len(s.recs) }

// Name implements Provider.
func (s *Static) Name() string { return s.name }

// Lookup implements Provider.
func (s *Static) Lookup(addr string) (Record, bool) {
	rec, ok := s.recs[addr]
	return rec, ok
}

// fileRecord is the on-disk JSON shape of one record.
type fileRecord struct {
	Addr     string  `json:"addr"`
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	RadiusKm float64 `json:"radius_km,omitempty"`
	// AsOf is RFC 3339; empty means undated.
	AsOf   string `json:"as_of,omitempty"`
	Source string `json:"source,omitempty"`
}

// fileDB is the on-disk JSON shape of a provider.
type fileDB struct {
	Name    string       `json:"name"`
	Records []fileRecord `json:"records"`
}

// LoadFile reads a static provider from a JSON file:
//
//	{"name": "geodb-lite",
//	 "records": [{"addr": "10.1.1.2", "lat": 42.44, "lon": -76.5,
//	              "radius_km": 25, "as_of": "2024-06-01T00:00:00Z",
//	              "source": "registry"}]}
//
// It refuses a record whose position is no geographic coordinate or whose
// radius_km is outside [0, π·R]: a disk is drawn from the radius's angle,
// so a radius past half the globe would draw as a small disk that RTT
// cross-validation can no longer judge.
func LoadFile(path string) (*Static, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var db fileDB
	if err := json.Unmarshal(data, &db); err != nil {
		return nil, fmt.Errorf("geodb: %s: %w", path, err)
	}
	if db.Name == "" {
		db.Name = path
	}
	s := NewStatic(db.Name)
	for _, fr := range db.Records {
		rec := Record{Loc: geo.Pt(fr.Lat, fr.Lon), RadiusKm: fr.RadiusKm, Source: fr.Source}
		if !rec.Loc.Valid() || !(rec.RadiusKm >= 0 && rec.RadiusKm <= math.Pi*geo.EarthRadiusKm) {
			return nil, fmt.Errorf("geodb: %s: record %s: position (%v, %v) or radius %v km out of range", path, fr.Addr, fr.Lat, fr.Lon, fr.RadiusKm)
		}
		if fr.AsOf != "" {
			t, err := time.Parse(time.RFC3339, fr.AsOf)
			if err != nil {
				return nil, fmt.Errorf("geodb: %s: record %s: bad as_of: %w", path, fr.Addr, err)
			}
			rec.AsOf = t
		}
		if rec.Source == "" {
			rec.Source = db.Name
		}
		s.Add(fr.Addr, rec)
	}
	return s, nil
}

// CompositeOpts tunes a Composite's staleness decay.
type CompositeOpts struct {
	// StaleHalfLife halves a dated record's weight per elapsed half-life
	// (0 disables weight decay).
	StaleHalfLife time.Duration
	// StaleRadiusKmPerYear inflates a dated record's radius per year of
	// age (0 disables radius inflation) — older claims are vaguer, not
	// just less trusted.
	StaleRadiusKmPerYear float64
	// Now supplies the clock (tests and deterministic harnesses inject
	// one; nil defaults to time.Now).
	Now func() time.Time
}

// weightedProvider is one Composite member.
type weightedProvider struct {
	p Provider
	w float64
}

// Composite consults member providers in registration order and returns
// the first hit, scaled by the member's trust weight and decayed by the
// record's age. It implements Weighted.
type Composite struct {
	members []weightedProvider
	opts    CompositeOpts
	name    string
}

// NewComposite builds an empty composite.
func NewComposite(opts CompositeOpts) *Composite {
	return &Composite{opts: opts}
}

// AddProvider registers a member with a trust weight in (0, 1]; weights
// outside that range clamp to 1.
func (c *Composite) AddProvider(p Provider, weight float64) {
	if weight <= 0 || weight > 1 {
		weight = 1
	}
	c.members = append(c.members, weightedProvider{p: p, w: weight})
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.p.Name()
	}
	c.name = "composite(" + strings.Join(names, ",") + ")"
}

// Name implements Provider.
func (c *Composite) Name() string {
	if c.name == "" {
		return "composite()"
	}
	return c.name
}

// Lookup implements Provider.
func (c *Composite) Lookup(addr string) (Record, bool) {
	rec, _, ok := c.LookupWeighted(addr)
	return rec, ok
}

// LookupWeighted implements Weighted: the first member hit, with the
// member's trust weight decayed (and the record's radius inflated) by the
// record's age.
func (c *Composite) LookupWeighted(addr string) (Record, float64, bool) {
	rec, w, ok := c.claim(addr)
	if ok {
		rec, w = c.age(rec, w)
	}
	return rec, w, ok
}

// claim returns the first member hit and the member's trust weight, as
// stored: undecayed.
func (c *Composite) claim(addr string) (Record, float64, bool) {
	for _, m := range c.members {
		if rec, ok := m.p.Lookup(addr); ok {
			return rec, m.w, true
		}
	}
	return Record{}, 0, false
}

// age decays a claim's weight and inflates its radius by the record's
// age on the composite's clock.
func (c *Composite) age(rec Record, w float64) (Record, float64) {
	if rec.AsOf.IsZero() {
		return rec, w
	}
	now := time.Now
	if c.opts.Now != nil {
		now = c.opts.Now
	}
	if age := now().Sub(rec.AsOf); age > 0 {
		if hl := c.opts.StaleHalfLife; hl > 0 {
			w *= halveOver(age, hl)
		}
		if perYear := c.opts.StaleRadiusKmPerYear; perYear > 0 {
			rec.RadiusKm += perYear * age.Hours() / (365.25 * 24)
		}
	}
	return rec, w
}

// halveOver returns 0.5^(age/halfLife).
func halveOver(age, halfLife time.Duration) float64 {
	return math.Exp2(-float64(age) / float64(halfLife))
}

// Cached wraps a provider with a fixed-capacity LRU over lookup results,
// negatives included — passive databases are consulted on every
// localization, and the working set of targets is small. A Composite's
// answer ages with its clock, so for one the cache keeps the stored claim
// and decays it on every read.
type Cached struct {
	inner Provider
	memo  *lru.Cache[string, cacheEntry]
}

// cacheEntry is one memoized lookup, hit or miss.
type cacheEntry struct {
	rec Record
	w   float64
	ok  bool
}

// NewCached wraps inner with an LRU of the given capacity (≤ 0 defaults
// to 1024).
func NewCached(inner Provider, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cached{inner: inner, memo: lru.New[string, cacheEntry](capacity, 0)}
}

// Name implements Provider.
func (c *Cached) Name() string { return c.inner.Name() }

// Lookup implements Provider.
func (c *Cached) Lookup(addr string) (Record, bool) {
	rec, _, ok := c.LookupWeighted(addr)
	return rec, ok
}

// LookupWeighted implements Weighted. When the inner provider is not
// Weighted the cached weight is 0 ("use your default"), matching what the
// consumer would get from the raw provider. Two concurrent first lookups
// of one address both ask inner; the provider answers both the same.
func (c *Cached) LookupWeighted(addr string) (Record, float64, bool) {
	comp, aging := c.inner.(*Composite)
	ent, ok := c.memo.Get(addr)
	if !ok {
		switch p := c.inner.(type) {
		case *Composite:
			ent.rec, ent.w, ent.ok = p.claim(addr)
		case Weighted:
			ent.rec, ent.w, ent.ok = p.LookupWeighted(addr)
		default:
			ent.rec, ent.ok = p.Lookup(addr)
		}
		c.memo.Put(addr, ent)
	}
	if aging && ent.ok {
		ent.rec, ent.w = comp.age(ent.rec, ent.w)
	}
	return ent.rec, ent.w, ent.ok
}

// Stats reports the cache's hit/miss counters and occupancy.
func (c *Cached) Stats() (hits, misses uint64, size int) {
	hits, misses = c.memo.Counters()
	return hits, misses, c.memo.Len()
}
