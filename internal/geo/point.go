// Package geo implements the geometric substrate of the Octant framework:
// spherical primitives (great-circle distance, bearings, destination points),
// an azimuthal equidistant projection used to bring the localization problem
// into the plane, Bezier curves, polygonal regions, the weight grid the §2.4
// solver runs on (every "where do these regions all hold" question is a solve
// on it), pairwise raster booleans for the façade and the tests,
// morphological buffering for secondary-landmark constraints, and GeoJSON
// export.
//
// All planar computation is done in kilometres in a projection plane; all
// geographic positions use degrees of latitude and longitude on a spherical
// Earth model (authalic radius).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius of the spherical model, in km.
const EarthRadiusKm = 6371.0088

// KmPerMile converts statute miles to kilometres. The paper reports errors in
// miles; the implementation computes in kilometres.
const KmPerMile = 1.609344

// MilesPerKm converts kilometres to statute miles.
const MilesPerKm = 1 / KmPerMile

// SpeedOfLightKmPerMs is the speed of light in vacuum, in km per millisecond.
const SpeedOfLightKmPerMs = 299.792458

// FiberSpeedKmPerMs is the propagation speed of light in fiber, approximately
// 2/3 the speed of light in vacuum (§2.1 of the paper), in km/ms.
const FiberSpeedKmPerMs = SpeedOfLightKmPerMs * 2 / 3

// Point is a position on the globe in degrees.
type Point struct {
	Lat float64 // latitude, degrees north, [-90, 90]
	Lon float64 // longitude, degrees east, (-180, 180]
}

// Pt is shorthand for Point{lat, lon}.
func Pt(lat, lon float64) Point { return Point{Lat: lat, Lon: lon} }

// String formats the point as "lat,lon" with 4 decimal places.
func (p Point) String() string { return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon) }

// Valid reports whether the point is a plausible geographic coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceKm returns the great-circle distance between p and q in kilometres,
// computed with the haversine formula (numerically stable for small angles).
func (p Point) DistanceKm(q Point) float64 {
	lat1, lat2 := deg2rad(p.Lat), deg2rad(q.Lat)
	s1 := math.Sin((lat2 - lat1) / 2)
	s2 := math.Sin((deg2rad(q.Lon) - deg2rad(p.Lon)) / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceMiles returns the great-circle distance between p and q in statute
// miles.
func (p Point) DistanceMiles(q Point) float64 { return p.DistanceKm(q) * MilesPerKm }

// Destination returns the point reached by travelling distKm kilometres from
// p along the initial bearing (radians, clockwise from north).
func (p Point) Destination(bearing, distKm float64) Point {
	lat1, lon1 := deg2rad(p.Lat), deg2rad(p.Lon)
	ad := distKm / EarthRadiusKm
	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(bearing)
	lat2 := math.Asin(clamp(sinLat2, -1, 1))
	y := math.Sin(bearing) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*math.Sin(lat2)
	lon2 := lon1 + math.Atan2(y, x)
	return Point{Lat: rad2deg(lat2), Lon: normalizeLonDeg(rad2deg(lon2))}
}

// normalizeLonDeg wraps a longitude into (-180, 180].
func normalizeLonDeg(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon <= -180 {
		lon += 360
	}
	return lon
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Centroid returns the spherical centroid (normalized 3-vector mean) of the
// given points. It returns the zero Point if pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var x, y, z float64
	for _, p := range pts {
		lat, lon := deg2rad(p.Lat), deg2rad(p.Lon)
		x += math.Cos(lat) * math.Cos(lon)
		y += math.Cos(lat) * math.Sin(lon)
		z += math.Sin(lat)
	}
	n := float64(len(pts))
	x, y, z = x/n, y/n, z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm == 0 {
		return pts[0]
	}
	lat := math.Asin(clamp(z/norm, -1, 1))
	lon := math.Atan2(y, x)
	return Point{Lat: rad2deg(lat), Lon: rad2deg(lon)}
}

// LatencyToMaxDistanceKm converts a round-trip latency in milliseconds to the
// physically maximal one-way geographic distance in kilometres, assuming
// propagation at 2/3 the speed of light in both directions (§2.1). This is
// the conservative speed-of-light bound.
func LatencyToMaxDistanceKm(rttMs float64) float64 {
	if rttMs < 0 {
		return 0
	}
	return rttMs / 2 * FiberSpeedKmPerMs
}

// DistanceToMinLatencyMs is the inverse of LatencyToMaxDistanceKm: the
// minimum possible round-trip time in milliseconds to a host distKm away.
func DistanceToMinLatencyMs(distKm float64) float64 {
	if distKm < 0 {
		return 0
	}
	return 2 * distKm / FiberSpeedKmPerMs
}
