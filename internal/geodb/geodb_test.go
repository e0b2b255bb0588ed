package geodb

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"octant/internal/geo"
	"octant/internal/netsim"
)

func TestStaticLookup(t *testing.T) {
	s := NewStatic("test")
	rec := Record{Loc: geo.Pt(42.44, -76.50), RadiusKm: 25, Source: "registry"}
	s.Add("10.1.1.2", rec)
	got, ok := s.Lookup("10.1.1.2")
	if !ok || got != rec {
		t.Fatalf("Lookup = %v %v, want %v", got, ok, rec)
	}
	if _, ok := s.Lookup("10.9.9.9"); ok {
		t.Fatal("Lookup of unknown address succeeded")
	}
	if s.Len() != 1 || s.Name() != "test" {
		t.Errorf("Len/Name = %d/%q", s.Len(), s.Name())
	}
}

func TestLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	body := `{"name": "geodb-lite", "records": [
		{"addr": "h1", "lat": 42.44, "lon": -76.5, "radius_km": 25,
		 "as_of": "2024-06-01T00:00:00Z", "source": "registry"},
		{"addr": "h2", "lat": 40.71, "lon": -74.0}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "geodb-lite" || s.Len() != 2 {
		t.Fatalf("Name/Len = %q/%d", s.Name(), s.Len())
	}
	r1, ok := s.Lookup("h1")
	if !ok || r1.RadiusKm != 25 || r1.Source != "registry" {
		t.Errorf("h1 = %v %v", r1, ok)
	}
	if want := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC); !r1.AsOf.Equal(want) {
		t.Errorf("h1 AsOf = %v, want %v", r1.AsOf, want)
	}
	// Unstated fields: undated, no radius, source falls back to the DB name.
	r2, ok := s.Lookup("h2")
	if !ok || !r2.AsOf.IsZero() || r2.RadiusKm != 0 || r2.Source != "geodb-lite" {
		t.Errorf("h2 = %v %v", r2, ok)
	}
}

func TestLoadFileBadDate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	body := `{"records": [{"addr": "h1", "lat": 1, "lon": 2, "as_of": "yesterday"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("bad as_of loaded without error")
	}
}

// TestLoadFileRefusesOutOfRange: a record's position must be a geographic
// coordinate and its radius in [0, π·R]. A 40,040 km radius — one
// circumference and 10 km — would be drawn as a 10 km disk, which RTT
// cross-validation cannot refuse.
func TestLoadFileRefusesOutOfRange(t *testing.T) {
	for _, rec := range []string{
		`"lat": 1, "lon": 2, "radius_km": 40040`,
		`"lat": 1, "lon": 2, "radius_km": -1`,
		`"lat": 91, "lon": 2`,
		`"lat": 1, "lon": -181`,
	} {
		path := filepath.Join(t.TempDir(), "db.json")
		body := `{"records": [{"addr": "h1", ` + rec + `}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Errorf("record {%s} loaded without error", rec)
		}
	}
}

// FuzzLoadFile: whatever bytes a database file holds, LoadFile does not
// panic, and every record it accepts is a geographic coordinate with a
// radius in [0, π·R].
func FuzzLoadFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "db.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadFile(path)
		if err != nil {
			return
		}
		for addr, rec := range s.recs {
			if !rec.Loc.Valid() || !(rec.RadiusKm >= 0 && rec.RadiusKm <= math.Pi*geo.EarthRadiusKm) {
				t.Fatalf("accepted record %q: %+v", addr, rec)
			}
		}
	})
}

// The composite returns the first member hit, scaled by the member's
// trust weight and decayed by the record's age under an injected clock.
func TestCompositeWeightsAndStaleness(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	halfLife := 365 * 24 * time.Hour

	fresh := NewStatic("fresh")
	fresh.Add("h1", Record{Loc: geo.Pt(1, 1), RadiusKm: 20, AsOf: now})
	stale := NewStatic("stale")
	stale.Add("h2", Record{Loc: geo.Pt(2, 2), RadiusKm: 20, AsOf: now.Add(-2 * halfLife)})
	stale.Add("h1", Record{Loc: geo.Pt(9, 9)}) // shadowed by fresh

	c := NewComposite(CompositeOpts{
		StaleHalfLife:        halfLife,
		StaleRadiusKmPerYear: 50,
		Now:                  func() time.Time { return now },
	})
	c.AddProvider(fresh, 0.9)
	c.AddProvider(stale, 0.5)
	if c.Name() != "composite(fresh,stale)" {
		t.Errorf("Name = %q", c.Name())
	}

	// h1: first member wins, fresh record keeps the full trust weight.
	rec, w, ok := c.LookupWeighted("h1")
	if !ok || rec.Loc != geo.Pt(1, 1) {
		t.Fatalf("h1 = %v %v", rec, ok)
	}
	if math.Abs(w-0.9) > 1e-12 {
		t.Errorf("fresh weight = %v, want 0.9", w)
	}
	if rec.RadiusKm != 20 {
		t.Errorf("fresh radius = %v, want 20 (no inflation)", rec.RadiusKm)
	}

	// h2: two half-lives old → trust quartered, radius inflated ~2 years.
	rec, w, ok = c.LookupWeighted("h2")
	if !ok {
		t.Fatal("h2 missed")
	}
	if want := 0.5 * 0.25; math.Abs(w-want) > 1e-9 {
		t.Errorf("stale weight = %v, want %v", w, want)
	}
	wantRadius := 20 + 50*(2*halfLife).Hours()/(365.25*24)
	if math.Abs(rec.RadiusKm-wantRadius) > 0.01 {
		t.Errorf("stale radius = %v, want %v", rec.RadiusKm, wantRadius)
	}

	if _, _, ok := c.LookupWeighted("h3"); ok {
		t.Error("unknown address hit")
	}
}

func TestCompositeUndatedRecordsStayFresh(t *testing.T) {
	s := NewStatic("undated")
	s.Add("h1", Record{Loc: geo.Pt(1, 1), RadiusKm: 10})
	c := NewComposite(CompositeOpts{
		StaleHalfLife:        time.Hour,
		StaleRadiusKmPerYear: 1000,
		Now:                  func() time.Time { return time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC) },
	})
	c.AddProvider(s, 0.8)
	rec, w, ok := c.LookupWeighted("h1")
	if !ok || w != 0.8 || rec.RadiusKm != 10 {
		t.Errorf("undated record decayed: %v w=%v ok=%v", rec, w, ok)
	}
}

// countingProvider counts how often the inner table is consulted.
type countingProvider struct {
	*Static
	calls int
}

func (p *countingProvider) Lookup(addr string) (Record, bool) {
	p.calls++
	return p.Static.Lookup(addr)
}

func TestCachedMemoizesHitsAndMisses(t *testing.T) {
	inner := &countingProvider{Static: NewStatic("inner")}
	inner.Add("h1", Record{Loc: geo.Pt(1, 1)})
	c := NewCached(inner, 8)
	if c.Name() != "inner" {
		t.Errorf("Name = %q", c.Name())
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Lookup("h1"); !ok {
			t.Fatal("h1 missed")
		}
		if _, ok := c.Lookup("absent"); ok {
			t.Fatal("absent hit")
		}
	}
	if inner.calls != 2 {
		t.Errorf("inner consulted %d times, want 2 (one per distinct address, negatives cached too)", inner.calls)
	}
	hits, misses, size := c.Stats()
	if hits != 4 || misses != 2 || size != 2 {
		t.Errorf("Stats = %d/%d/%d, want 4/2/2", hits, misses, size)
	}
}

func TestCachedEvictsLRU(t *testing.T) {
	inner := &countingProvider{Static: NewStatic("inner")}
	inner.Add("a", Record{})
	inner.Add("b", Record{})
	inner.Add("c", Record{})
	c := NewCached(inner, 2)
	c.Lookup("a")
	c.Lookup("b")
	c.Lookup("a") // refresh a; b is now LRU
	c.Lookup("c") // evicts b
	inner.calls = 0
	c.Lookup("a")
	c.Lookup("c")
	if inner.calls != 0 {
		t.Errorf("resident entries re-consulted inner %d times", inner.calls)
	}
	c.Lookup("b")
	if inner.calls != 1 {
		t.Errorf("evicted entry consulted inner %d times, want 1", inner.calls)
	}
}

func TestCachedPassesThroughWeights(t *testing.T) {
	s := NewStatic("s")
	s.Add("h1", Record{Loc: geo.Pt(1, 1), AsOf: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)})
	comp := NewComposite(CompositeOpts{
		StaleHalfLife: 365 * 24 * time.Hour,
		Now:           func() time.Time { return time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC) },
	})
	comp.AddProvider(s, 1)
	c := NewCached(comp, 4)
	_, w1, ok := c.LookupWeighted("h1")
	if !ok || w1 <= 0 || w1 >= 1 {
		t.Fatalf("weighted passthrough = %v %v, want decayed weight in (0,1)", w1, ok)
	}
	_, w2, _ := c.LookupWeighted("h1")
	if w2 != w1 {
		t.Errorf("cached weight %v != first %v", w2, w1)
	}
	// Non-Weighted inner: cached weight is 0 ("use your default").
	plain := NewCached(s, 4)
	if _, w, _ := plain.LookupWeighted("h1"); w != 0 {
		t.Errorf("non-weighted inner produced weight %v", w)
	}
}

// TestCachedCompositeAgesWithItsClock: the cache keeps a Composite's
// claim, not its decayed weight, so a record read through the cache ages
// as the composite's clock moves, exactly as it does read directly.
func TestCachedCompositeAgesWithItsClock(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	s := NewStatic("s")
	s.Add("h1", Record{Loc: geo.Pt(1, 1), RadiusKm: 10, AsOf: t0})
	comp := NewComposite(CompositeOpts{
		StaleHalfLife:        365 * 24 * time.Hour,
		StaleRadiusKmPerYear: 5,
		Now:                  func() time.Time { return now },
	})
	comp.AddProvider(s, 0.9)
	c := NewCached(comp, 4)
	if _, w, ok := c.LookupWeighted("h1"); !ok || w != 0.9 {
		t.Fatalf("at t0: weight %v (ok %v), want 0.9", w, ok)
	}
	now = t0.Add(2 * 365 * 24 * time.Hour)
	want, wantW, _ := comp.LookupWeighted("h1")
	if wantW != 0.225 {
		t.Fatalf("composite two years on: weight %v, want 0.225", wantW)
	}
	if got, w, ok := c.LookupWeighted("h1"); !ok || w != wantW || got != want {
		t.Errorf("cached two years on: %+v weight %v, want %+v weight %v", got, w, want, wantW)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("Stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestSynthKnobs(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	hosts := w.HostNodes()

	fresh := NewSynth(w, SynthOpts{Seed: 1})
	if fresh.Len() != 2*len(hosts) {
		t.Fatalf("Len = %d, want %d (name + IP per host)", fresh.Len(), 2*len(hosts))
	}
	for _, h := range hosts {
		rec, ok := fresh.Lookup(h.Name)
		if !ok {
			t.Fatalf("no record for %s", h.Name)
		}
		byIP, ok := fresh.Lookup(h.IP)
		if !ok || byIP != rec {
			t.Errorf("%s: IP record differs from name record", h.Name)
		}
		if d := rec.Loc.DistanceKm(h.Loc); d > 18 {
			t.Errorf("%s: fresh record %0.f km off (want ≤ 18)", h.Name, d)
		}
		if rec.Source != "synth" || rec.RadiusKm != 40 || rec.AsOf.IsZero() {
			t.Errorf("%s: rec = %+v", h.Name, rec)
		}
	}

	// Determinism: same (world, opts) → identical records.
	again := NewSynth(w, SynthOpts{Seed: 1})
	for _, h := range hosts {
		a, _ := fresh.Lookup(h.Name)
		b, _ := again.Lookup(h.Name)
		if a != b {
			t.Fatalf("%s: synth not deterministic", h.Name)
		}
	}

	wrong := NewSynth(w, SynthOpts{Seed: 1, WrongFrac: 1})
	for _, h := range hosts {
		rec, _ := wrong.Lookup(h.Name)
		if rec.Source != "synth-wrong" {
			t.Errorf("%s: WrongFrac 1 produced %q", h.Name, rec.Source)
			continue
		}
		if d := rec.Loc.DistanceKm(h.Loc); d < 1500 {
			t.Errorf("%s: wrong record only %.0f km off", h.Name, d)
		}
	}

	stale := NewSynth(w, SynthOpts{Seed: 1, StaleFrac: 1})
	for _, h := range hosts {
		rec, _ := stale.Lookup(h.Name)
		if rec.Source != "synth-stale" {
			t.Errorf("%s: StaleFrac 1 produced %q", h.Name, rec.Source)
			continue
		}
		if age := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Sub(rec.AsOf); age < 2*365*24*time.Hour {
			t.Errorf("%s: stale record only %v old", h.Name, age)
		}
		if d := rec.Loc.DistanceKm(h.Loc); math.Abs(d-300) > 1 {
			t.Errorf("%s: stale drift %.0f km, want ~300", h.Name, d)
		}
	}
}
