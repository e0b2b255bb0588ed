package core

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
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
//
// Each fingerprint must also be byte for byte what the strings.Builder
// encoding (fingerprintOracle) writes: cache keys outlive a build in the
// front door's L1, in peers' /v1/cache/lookup keys and in the benchmark
// harness's keys.
func FuzzFingerprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		oa, ob := fuzzOptions(a), fuzzOptions(b)
		fp := oa.Fingerprint()
		if want := fingerprintOracle(&oa); fp != want {
			t.Fatalf("fingerprint %q, oracle %q for %+v", fp, want, oa)
		}
		if fp == ob.Fingerprint() && !sameOptions(oa, ob) {
			t.Fatalf("distinct options share fingerprint %q:\n%+v\n%+v", fp, oa, ob)
		}
	})
}

// fingerprintOracle is LocalizeOptions.Fingerprint as first written:
// sorted keys formatted through a strings.Builder.
func fingerprintOracle(o *LocalizeOptions) string {
	if o.isZero() {
		return ""
	}
	str := func(b *strings.Builder, s string) { b.WriteString(strconv.Itoa(len(s)) + ":" + s) }
	num := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	var b strings.Builder
	if len(o.Disabled) > 0 {
		names := make([]string, 0, len(o.Disabled))
		for name, off := range o.Disabled {
			if off {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		b.WriteString("d=")
		for _, name := range names {
			str(&b, name)
		}
		b.WriteByte(';')
	}
	if len(o.WeightScale) > 0 {
		names := make([]string, 0, len(o.WeightScale))
		for name := range o.WeightScale {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("w=")
		for _, name := range names {
			str(&b, name)
			b.WriteString(num(o.WeightScale[name]) + ",")
		}
		b.WriteByte(';')
	}
	if o.MinAreaKm2 != 0 {
		b.WriteString("a=" + num(o.MinAreaKm2) + ";")
	}
	if o.FineCellKm != 0 {
		b.WriteString("f=" + num(o.FineCellKm) + ";")
	}
	if o.NegHeightPercentile != 0 {
		b.WriteString("p=" + num(o.NegHeightPercentile) + ";")
	}
	if o.MinLandmarks != 0 {
		b.WriteString("q=" + strconv.Itoa(o.MinLandmarks) + ";")
	}
	if o.Explain {
		b.WriteString("e;")
	}
	if len(o.Hints) > 0 {
		b.WriteString("h=")
		for _, h := range o.Hints {
			for _, f := range [...]float64{h.Loc.Lat, h.Loc.Lon, h.RadiusKm, h.Weight} {
				b.WriteString(num(f) + ",")
			}
			str(&b, h.Label)
		}
		b.WriteByte(';')
	}
	if len(o.Extra) > 0 {
		h := fnv.New64a()
		for _, c := range o.Extra {
			hashConstraint(h, &c)
		}
		b.WriteString("c=" + strconv.Itoa(len(o.Extra)) + ":" + strconv.FormatUint(h.Sum64(), 36) + ";")
	}
	if len(o.ExtraSources) > 0 {
		b.WriteString("s=" + strconv.Itoa(len(o.ExtraSources)) + ";")
	}
	if o.GeoDB != nil {
		b.WriteString("g=")
		str(&b, o.GeoDB.Name())
		b.WriteByte(';')
	}
	if o.Secondary != nil {
		h := fnv.New64a()
		hashRegion(h, o.Secondary.Beta)
		b.WriteString("2=" + num(o.Secondary.RTTMs) + ":" + strconv.FormatUint(h.Sum64(), 36) + ";")
	}
	return b.String()
}
