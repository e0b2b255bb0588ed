// Package hints maps DNS names to cities by the tokens operators embed in
// them. It is the tree's one name→city engine, replacing the closed-source
// undns tool the paper uses for router names (§2.3) and serving HLOC-style
// end-host hints from the same walk and the same gazetteer:
//
//	sl-bb21-chi-14-0.sprintlink.net       → Chicago  (router, IATA token)
//	pool-17.chi.edge.isp.net              → Chicago  (subscriber pool)
//	dsl-42.chcgil01.access.telco.net      → Chicago  (CLLI place prefix)
//	core1.chicago.backbone.example.net    → Chicago  (spelled-out name)
//
// Names are tokenized on [.-], the TLD and registrable domain are dropped
// (operator site codes sit in the host-specific labels), and labels are
// read from the one nearest the operator domain inward. Resolve returns
// the first token that names a city — the router question — and Parse
// every distinct one — the end-host question.
//
// A hint is never trusted on its own. The core pipeline cross-validates
// each hint disk against the speed-of-light bound implied by measured
// landmark RTTs and drops (but records) any hint the physics rules out,
// so a recycled or misconfigured name can only ever cost the hint, not
// the answer.
package hints

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"octant/internal/geo"
	"octant/internal/netsim"
)

// Kind classifies where in a reverse name a hint token was recognized.
type Kind int

// Hint token kinds.
const (
	// KindIATA is a 3-letter airport-style city code ("chi").
	KindIATA Kind = iota
	// KindCLLI is a 6-letter CLLI place prefix ("chcgil").
	KindCLLI
	// KindName is a spelled-out city name token ("chicago").
	KindName
)

func (k Kind) String() string {
	switch k {
	case KindIATA:
		return "iata"
	case KindCLLI:
		return "clli"
	case KindName:
		return "name"
	}
	return "unknown"
}

// Hint is one geographic token recognized in a reverse-DNS name.
type Hint struct {
	// Code is the canonical (IATA-style) city code the token resolved to.
	Code string
	// City is the city's display name.
	City string
	// Kind is the token class that matched.
	Kind Kind
	// Loc is the city's position.
	Loc geo.Point
}

// Engine parses names against IATA, CLLI, and city-name tables. Resolve
// and Parse are pure lookups, so an Engine is safe for concurrent use
// once populated; call AddCity only before sharing it across goroutines.
type Engine struct {
	byIATA map[string]Hint
	byCLLI map[string]Hint
	byName map[string]string // city-name alias (≥ 4 chars) → IATA code
}

// NewEngine builds an engine over the simulator's POP city table: every
// city's IATA code, CLLI prefix (netsim.CLLIByCode), and full-name alias.
func NewEngine() *Engine {
	e := &Engine{
		byIATA: make(map[string]Hint),
		byCLLI: make(map[string]Hint),
		byName: make(map[string]string),
	}
	for _, c := range netsim.POPCities {
		e.AddCity(c.Code, netsim.CLLIByCode[c.Code], c.Name, c.Loc())
	}
	return e
}

// AddCity registers a city under its IATA code, optional CLLI prefix, and
// full-name alias (lowercase, spaces stripped, ≥ 4 chars).
//
// Collisions resolve order-independently: when two cities register the
// same code, CLLI prefix or alias, the winner is picked by comparing the
// entries (less), never by insertion order, so an Engine populated from
// an unordered source (a map of custom rules) always builds the same
// tables.
func (e *Engine) AddCity(code, clli, name string, loc geo.Point) {
	h := Hint{Code: strings.ToLower(code), City: name, Kind: KindIATA, Loc: loc}
	if prev, ok := e.byIATA[h.Code]; !ok || less(h, prev) {
		e.byIATA[h.Code] = h
	}
	if clli = strings.ToLower(clli); clli != "" {
		h.Kind = KindCLLI
		if prev, ok := e.byCLLI[clli]; !ok || less(h, prev) {
			e.byCLLI[clli] = h
		}
	}
	if alias := strings.ToLower(strings.ReplaceAll(name, " ", "")); len(alias) >= 4 {
		if prev, ok := e.byName[alias]; !ok || h.Code < prev {
			e.byName[alias] = h.Code
		}
	}
}

// less orders colliding cities by name, then code.
func less(a, b Hint) bool { return a.City < b.City || a.City == b.City && a.Code < b.Code }

// operatorSuffixes are label fragments that never carry geography:
// backbone operator vocabulary plus that of subscriber pool names.
var operatorSuffixes = map[string]bool{
	"net": true, "com": true, "org": true, "edu": true, "gov": true,
	"ip": true, "bb": true, "core": true, "gw": true, "rtr": true,
	"router": true, "gin": true, "alter": true, "ntt": true,
	"simnet": true, "sprintlink": true, "level3": true, "cogentco": true,
	"edge": true, "access": true, "pool": true, "dsl": true,
	"cable": true, "static": true, "dyn": true, "dynamic": true,
	"res": true, "hsd": true, "host": true, "cust": true, "dhcp": true,
}

// Resolve returns the most site-specific city token in name (rightmost
// label, leftmost token) — where a router with that name stands. ok is
// false when no token matches. It does not allocate.
func (e *Engine) Resolve(name string) (h Hint, ok bool) {
	e.scan(name, func(m Hint) bool {
		h, ok = m, true
		return false
	})
	return h, ok
}

// Parse extracts every geographic hint from a reverse-DNS name,
// deduplicated by city code, most site-specific first. It returns nil —
// without allocating — when the name carries no recognizable token, which
// is the common case.
func (e *Engine) Parse(name string) (out []Hint) {
	e.scan(name, func(h Hint) bool {
		for _, seen := range out {
			if seen.Code == h.Code {
				return true
			}
		}
		out = append(out, h)
		return true
	})
	return out
}

// scan walks name's host-specific labels from the rightmost (closest to
// the operator domain, where site codes conventionally sit) inward and
// each label's tokens left to right, calling yield with every token that
// names a city until yield returns false. Label and token boundaries are
// sliced by hand and tokens lower-cased into a 128-byte stack buffer (one
// that outgrows it names no city), so the walk costs no allocations.
func (e *Engine) scan(name string, yield func(Hint) bool) {
	var buf [128]byte
	name = strings.TrimSuffix(name, ".")
	// Drop the TLD and registrable domain: geography never lives there.
	if last := strings.LastIndexByte(name, '.'); last >= 0 {
		if prev := strings.LastIndexByte(name[:last], '.'); prev >= 0 {
			name = name[:prev]
		}
	}
	for len(name) > 0 {
		label := name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			label = name[i+1:]
			name = name[:i]
		} else {
			name = ""
		}
		for len(label) > 0 {
			tok := label
			if j := strings.IndexByte(label, '-'); j >= 0 {
				tok = label[:j]
				label = label[j+1:]
			} else {
				label = ""
			}
			tok = strings.TrimFunc(tok, func(r rune) bool { return r >= '0' && r <= '9' })
			low, fits := lower(buf[:0], tok)
			if !fits || len(low) == 0 || operatorSuffixes[string(low)] {
				continue
			}
			if h, ok := e.match(low); ok && !yield(h) {
				return
			}
		}
	}
}

// lower appends s to dst lower-cased rune by rune, as strings.ToLower maps
// it; fits is false when that would outgrow dst's capacity.
func lower(dst []byte, s string) (_ []byte, fits bool) {
	for _, r := range s {
		if r = unicode.ToLower(r); len(dst)+utf8.RuneLen(r) > cap(dst) {
			return dst, false
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst, true
}

// match resolves one cleaned, lower-cased token against the three tables.
func (e *Engine) match(tok []byte) (h Hint, ok bool) {
	switch len(tok) {
	case 3:
		h, ok = e.byIATA[string(tok)]
	case 6:
		h, ok = e.byCLLI[string(tok)]
	}
	if code, found := e.byName[string(tok)]; !ok && found {
		h, ok = e.byIATA[code], true
		h.Kind = KindName
	}
	return h, ok
}
