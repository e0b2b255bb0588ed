package netsim

import (
	"math"
	"math/rand/v2"

	"octant/internal/geo"
)

// WhoisRecord is a simulated WHOIS registration for an IP prefix. As on the
// real Internet, a fraction of records point at the registrant's national
// headquarters rather than the host's actual city — which is why the paper
// treats WHOIS-derived zip codes as weighted, fallible positive constraints
// (§2.5) rather than ground truth.
type WhoisRecord struct {
	IP      string
	OrgName string
	City    string
	Zip     string
	Loc     geo.Point // location the record implies
	Correct bool      // whether the record matches the host's true city
}

// hqCity is where erroneous WHOIS records point: a national registrar
// headquarters (we use the Washington, DC POP).
const hqCityCode = "wdc"

// buildWhois assigns a WHOIS record to every host IP. Correct records are
// city-granular, not host-granular: the implied location is the zip-code
// centroid, displaced up to ~18 km from the actual machine — matching the
// real registry precision that makes the paper treat WHOIS as a weak
// constraint rather than an answer.
func (w *World) buildWhois(rng *rand.Rand) {
	w.whois = make(map[string]WhoisRecord, len(w.Hosts))
	hq := CityByCode(hqCityCode)
	for _, id := range w.Hosts {
		n := w.Nodes[id]
		bearing := rng.Float64() * 2 * math.Pi
		offsetKm := 2 + rng.Float64()*16
		rec := WhoisRecord{
			IP:      n.IP,
			OrgName: n.Inst,
			City:    n.City,
			Zip:     n.Zip,
			Loc:     n.Loc.Destination(bearing, offsetKm),
			Correct: true,
		}
		if rng.Float64() < whoisErrorRate {
			rec.City = hq.Name
			rec.Zip = "20001"
			rec.Loc = hq.Loc()
			rec.Correct = false
		}
		w.whois[n.IP] = rec
	}
}

// Whois looks up the WHOIS record for an IP. ok is false for unknown IPs.
func (w *World) Whois(ip string) (WhoisRecord, bool) {
	rec, ok := w.whois[ip]
	return rec, ok
}
