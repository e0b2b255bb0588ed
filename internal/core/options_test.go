package core

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"testing"

	"octant/internal/geo"
)

// fuzzOptions decodes b into options the way a caller builds them: each
// op byte picks a With* option and the bytes after it are its arguments —
// a string is a length byte and that many bytes, a float eight
// little-endian bytes, an int one signed byte. Arguments past the end
// of the input read as zero, and the list ends there.
func fuzzOptions(b []byte) LocalizeOptions {
	// take consumes n bytes, or all that is left and returns nil.
	take := func(n int) []byte {
		if n > len(b) {
			b = nil
			return nil
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	num := func() float64 {
		if raw := take(8); raw != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw))
		}
		return 0
	}
	str := func() string {
		if n := take(1); n != nil {
			return string(take(int(n[0])))
		}
		return ""
	}
	var opts []LocalizeOption
	for len(b) > 0 {
		switch take(1)[0] % 8 {
		case 0:
			opts = append(opts, WithoutSource(str()))
		case 1:
			name := str()
			opts = append(opts, WithSourceWeight(name, num()))
		case 2:
			opts = append(opts, WithMinAreaKm2(num()))
		case 3:
			opts = append(opts, WithFineCellKm(num()))
		case 4:
			opts = append(opts, WithNegHeightPercentile(num()))
		case 5:
			if n := take(1); n != nil {
				opts = append(opts, WithMinLandmarks(int(int8(n[0]))))
			}
		case 6:
			opts = append(opts, WithExplain())
		case 7:
			lat, lon, r, w := num(), num(), num(), num()
			opts = append(opts, WithHint(geo.Pt(lat, lon), r, w, str()))
		}
	}
	return NewLocalizeOptions(opts...)
}

// sameOptions reports whether a and b ask for the same computation:
// the same sources off, scales, overrides and hints, floats compared by
// value with every NaN alike.
func sameOptions(a, b LocalizeOptions) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	off := func(o LocalizeOptions) map[string]bool {
		m := map[string]bool{}
		for name, v := range o.Disabled {
			if v {
				m[name] = true
			}
		}
		return m
	}
	return maps.Equal(off(a), off(b)) && maps.EqualFunc(a.WeightScale, b.WeightScale, same) &&
		same(a.MinAreaKm2, b.MinAreaKm2) && same(a.FineCellKm, b.FineCellKm) &&
		same(a.NegHeightPercentile, b.NegHeightPercentile) &&
		a.MinLandmarks == b.MinLandmarks && a.Explain == b.Explain &&
		slices.EqualFunc(a.Hints, b.Hints, func(x, y Hint) bool {
			return same(x.Loc.Lat, y.Loc.Lat) && same(x.Loc.Lon, y.Loc.Lon) &&
				same(x.RadiusKm, y.RadiusKm) && same(x.Weight, y.Weight) && x.Label == y.Label
		})
}

// FuzzFingerprint: two options sets with one fingerprint ask for the same
// computation — the engine's cache and flight would otherwise hand one
// request (one tenant, over /v2) the other's result. The committed corpus
// holds the three collisions of the unprefixed encoding: a disabled-source
// name spelling a list, a weight name spelling a second entry, and a hint
// label spelling a second hint.
func FuzzFingerprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		oa, ob := fuzzOptions(a), fuzzOptions(b)
		if fp := oa.Fingerprint(); fp == ob.Fingerprint() && !sameOptions(oa, ob) {
			t.Fatalf("distinct options share fingerprint %q:\n%+v\n%+v", fp, oa, ob)
		}
	})
}
