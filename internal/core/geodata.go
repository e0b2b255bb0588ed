package core

import "octant/internal/geo"

// Coarse landmass outlines for the §2.5 geographic negative constraints
// ("oceans, deserts, uninhabitable areas"). A target cannot be in the
// ocean, so solutions are masked to these polygons. The outlines are
// deliberately coarse — tens of vertices — because their job is to remove
// the Atlantic/Pacific from transatlantic ambiguity, not to draw coastlines.
//
// Coordinates are (lat, lon) vertex lists in counter-clockwise order.

// landNorthAmerica traces the continental US, southern Canada and northern
// Mexico.
var landNorthAmerica = []geo.Point{
	{Lat: 29.0, Lon: -115.0},
	{Lat: 31.0, Lon: -106.0},
	{Lat: 26.0, Lon: -99.0},
	{Lat: 25.0, Lon: -97.2},
	{Lat: 28.5, Lon: -95.5},
	{Lat: 29.3, Lon: -89.5},
	{Lat: 30.2, Lon: -85.0},
	{Lat: 27.0, Lon: -82.8},
	{Lat: 24.8, Lon: -81.2},
	{Lat: 26.8, Lon: -79.8},
	{Lat: 31.8, Lon: -80.8},
	{Lat: 35.0, Lon: -75.4},
	{Lat: 38.8, Lon: -74.8},
	{Lat: 40.4, Lon: -73.7},
	{Lat: 41.2, Lon: -69.8},
	{Lat: 44.5, Lon: -65.9},
	{Lat: 47.3, Lon: -60.0},
	{Lat: 49.5, Lon: -62.0},
	{Lat: 48.5, Lon: -69.5},
	{Lat: 50.5, Lon: -79.0},
	{Lat: 52.0, Lon: -90.0},
	{Lat: 52.5, Lon: -110.0},
	{Lat: 51.5, Lon: -128.0},
	{Lat: 48.0, Lon: -125.2},
	{Lat: 42.0, Lon: -124.8},
	{Lat: 38.5, Lon: -123.4},
	{Lat: 36.0, Lon: -122.2},
	{Lat: 34.2, Lon: -120.8},
	{Lat: 32.4, Lon: -117.6},
}

// landEurope traces western/central Europe including the British Isles in
// one coarse blob (the small seas it swallows are irrelevant at the
// fidelity negative geographic constraints need).
var landEurope = []geo.Point{
	{Lat: 36.0, Lon: -10.0},
	{Lat: 43.2, Lon: -10.0},
	{Lat: 48.5, Lon: -6.3},
	{Lat: 51.5, Lon: -11.0},
	{Lat: 55.5, Lon: -8.5},
	{Lat: 58.8, Lon: -6.0},
	{Lat: 61.5, Lon: 4.0},
	{Lat: 63.0, Lon: 9.5},
	{Lat: 60.0, Lon: 17.5},
	{Lat: 56.0, Lon: 21.0},
	{Lat: 54.5, Lon: 28.0},
	{Lat: 48.0, Lon: 32.0},
	{Lat: 44.5, Lon: 29.5},
	{Lat: 40.8, Lon: 26.5},
	{Lat: 36.5, Lon: 22.5},
	{Lat: 35.0, Lon: 15.0},
	{Lat: 36.2, Lon: -5.8},
}

// landOutlinePoints is the landmass set LandRegions projects.
var landOutlinePoints = [][]geo.Point{landNorthAmerica, landEurope}

// LandRegions projects the coarse landmass outlines into the given
// projection plane, ready to pass to SolverOpts.LandRegions.
func LandRegions(pr *geo.Projection) []*geo.Region {
	out := make([]*geo.Region, 0, len(landOutlinePoints))
	for _, outline := range landOutlinePoints {
		ring := make(geo.Ring, len(outline))
		for i, p := range outline {
			ring[i] = pr.Forward(p)
		}
		out = append(out, geo.RegionFromRing(ring))
	}
	return out
}
