// Package undns maps router DNS names to geographic locations by exploiting
// the structured naming conventions of backbone operators, replacing the
// closed-source undns tool from Rocketfuel that the paper uses in §2.3.
//
// Backbone routers commonly embed a city token — usually an airport code or
// an abbreviated city name — in their reverse-DNS names:
//
//	sl-bb21-chi-14-0.sprintlink.net       → Chicago
//	so-0-1-0.bb1.nyc.simnet.net           → New York
//	ae-2.r20.londen03.uk.bb.gin.ntt.net   → London
//
// Rules tokenize names on [.-] and look tokens up in a city-code table,
// preferring tokens closer to the domain root (operator site codes appear
// in the host-specific labels, not the operator domain).
package undns

import (
	"strings"

	"octant/internal/geo"
	"octant/internal/netsim"
)

// Location is a resolved router position.
type Location struct {
	City    string
	Code    string
	Country string
	Loc     geo.Point
}

// Resolver parses router names against a city-code table. Resolve is a
// pure lookup, so a Resolver is safe for concurrent use once populated;
// call Add only before sharing it across goroutines.
type Resolver struct {
	byCode map[string]Location
	// extra name fragments → code, for city-name style tokens
	// ("chicago" → chi) with minimum length 4 to avoid false hits.
	byName map[string]string
}

// NewResolver builds a resolver over the simulator's POP city table plus
// full-name aliases.
func NewResolver() *Resolver {
	r := &Resolver{
		byCode: make(map[string]Location),
		byName: make(map[string]string),
	}
	for _, c := range netsim.POPCities {
		r.Add(c.Code, c.Name, c.Country, c.Loc())
	}
	return r
}

// Add registers a city code with its location. Full-name aliases (lowercase,
// spaces stripped) are registered automatically.
//
// Collisions resolve order-independently: when two cities register the
// same code (or the same name alias), the winner is chosen by comparing
// the entries themselves — lexicographically smaller city name first,
// then country — never by insertion order. Callers populating a
// Resolver from an unordered source (a map of custom rules, concurrent
// table merges) therefore always build the same table, and Resolve
// stays deterministic for any fixed rule set.
func (r *Resolver) Add(code, name, country string, loc geo.Point) {
	l := Location{City: name, Code: code, Country: country, Loc: loc}
	key := strings.ToLower(code)
	if prev, ok := r.byCode[key]; !ok || lessLocation(l, prev) {
		r.byCode[key] = l
	}
	alias := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	if len(alias) >= 4 {
		if prev, ok := r.byName[alias]; !ok || key < prev {
			r.byName[alias] = key
		}
	}
}

// lessLocation orders locations deterministically for collision
// resolution: by city name, then country.
func lessLocation(a, b Location) bool {
	if a.City != b.City {
		return a.City < b.City
	}
	return a.Country < b.Country
}

// suffixesToStrip are generic label fragments that never carry geography.
var suffixesToStrip = map[string]bool{
	"net": true, "com": true, "org": true, "edu": true, "gov": true,
	"ip": true, "bb": true, "core": true, "gw": true, "rtr": true,
	"router": true, "gin": true, "alter": true, "ntt": true,
	"simnet": true, "sprintlink": true, "level3": true, "cogentco": true,
}

// Resolve attempts to extract a location from a router DNS name. ok is
// false when no token matches. Tokens are scanned right-to-left across
// labels (skipping the operator domain) and left-to-right within a label,
// so the most site-specific match wins.
func (r *Resolver) Resolve(name string) (Location, bool) {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if name == "" {
		return Location{}, false
	}
	labels := strings.Split(name, ".")
	// Drop the TLD and registrable domain: geography never lives there.
	if len(labels) > 2 {
		labels = labels[:len(labels)-2]
	}
	// Scan host-specific labels from the rightmost (closest to the
	// operator domain, where site codes conventionally sit) inward.
	for i := len(labels) - 1; i >= 0; i-- {
		for _, tok := range strings.Split(labels[i], "-") {
			tok = strings.TrimFunc(tok, func(r rune) bool { return r >= '0' && r <= '9' })
			if tok == "" || suffixesToStrip[tok] {
				continue
			}
			if loc, ok := r.byCode[tok]; ok && len(tok) >= 3 {
				return loc, true
			}
			if code, ok := r.byName[tok]; ok {
				return r.byCode[code], true
			}
		}
	}
	return Location{}, false
}
