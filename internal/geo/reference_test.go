package geo

import "math"

// Reference implementations the production geometry is held against.
// Nothing outside the tests calls them.

// scanRow collects winding crossings of all rings of r with the horizontal
// line y=yc, appending to buf, and returns the result sorted by (x, dir).
//
// This is the naive reference rasterizer: it touches every edge of every
// ring for the row, so filling a grid with it is O(rows × edges). The
// production fills go through the edge table and the two-cursor row fill;
// the equivalence property tests and FuzzRowFill check both cell for cell
// against it.
func scanRow(r *Region, yc float64, buf []crossing) []crossing {
	buf = buf[:0]
	for _, ring := range r.Rings {
		n := len(ring)
		for i := 0; i < n; i++ {
			a := ring[i]
			b := ring[(i+1)%n]
			if a.Y == b.Y {
				continue
			}
			dir := 0
			if a.Y <= yc && b.Y > yc {
				dir = 1
			} else if a.Y > yc && b.Y <= yc {
				dir = -1
			} else {
				continue
			}
			t := (yc - a.Y) / (b.Y - a.Y)
			buf = append(buf, crossing{x: a.X + t*(b.X-a.X), dir: dir})
		}
	}
	sortCrossings(buf)
	return buf
}

// rowSpans invokes fn(x0, x1) for every maximal run of cells in row y whose
// centres are inside region r (non-zero winding), using the naive scanRow.
func (g *Grid) rowSpans(r *Region, y int, buf []crossing, fn func(x0, x1 int)) []crossing {
	yc := g.Min.Y + (float64(y)+0.5)*g.CellKm
	buf = scanRow(r, yc, buf)
	emitSpans(g, buf, y, func(_, x0, x1 int) { fn(x0, x1) })
	return buf
}

// forwardReference is the original spherical Forward — the haversine +
// bearing chain — the property-test reference for the unit-vector path.
func (pr *Projection) forwardReference(p Point) Vec2 {
	d := pr.Center.DistanceKm(p)
	if d == 0 {
		return Vec2{}
	}
	b := pr.Center.BearingTo(p)
	// Bearing is clockwise from north; plane x is east, y is north.
	return Vec2{X: d * math.Sin(b), Y: d * math.Cos(b)}
}

// geoCircleReference is the original spherical GeoCircle — per-vertex
// Destination followed by the reference Forward — the property-test
// reference for the fused path.
func (pr *Projection) geoCircleReference(center Point, radiusKm float64, n int) []Vec2 {
	if n < 3 {
		n = 3
	}
	out := make([]Vec2, n)
	for i := 0; i < n; i++ {
		b := 2 * math.Pi * float64(i) / float64(n)
		out[i] = pr.forwardReference(center.Destination(b, radiusKm))
	}
	ensureCCW(out)
	return out
}

// azimuthalReference is a copy of the projection kernel, azimuthal with
// its polynomial arc tangent, kept here so that appendGeoCircleReference
// does not lean on the code it checks.
func azimuthalReference(e, n, u float64) Vec2 {
	rho := math.Sqrt(e*e + n*n)
	if rho == 0 {
		if u >= 0 {
			return Vec2{}
		}
		return Vec2{X: 0, Y: math.Pi * EarthRadiusKm}
	}
	au := math.Abs(u)
	t := rho / au
	if rho > au {
		t = au / rho
	}
	c := [12]float64{0.9999999999293037, -0.3333333129088999, 0.19999901102171555, -0.14283813255743194,
		0.11091922963683302, -0.08974171958363882, 0.07228278345377252, -0.05395668057137172,
		0.033826218952786875, -0.015828322749149415, 0.00473248419342192, -0.0006633954571104787}
	z := t * t
	z2 := z * z
	z4 := z2 * z2
	a := t * (c[0] + c[1]*z + (c[2]+c[3]*z)*z2 + z4*(c[4]+c[5]*z+(c[6]+c[7]*z)*z2+z4*(c[8]+c[9]*z+(c[10]+c[11]*z)*z2)))
	if rho > au {
		a = math.Pi/2 - a
	}
	if u < 0 {
		a = math.Pi - a
	}
	s := EarthRadiusKm * a / rho
	return Vec2{X: e * s, Y: n * s}
}

// appendGeoCircleReference is AppendGeoCircle as it ran before it took its
// orientation from the generating loop: frames by value, each vertex through
// the projection (azimuthalReference), then ensureCCW's shoelace walk —
// after which the disk constructors' NewRegion (since deleted) walked the
// ring once more and reversed it unless its area was positive.
// AppendGeoCircle must return the bytes those two steps left.
func (f Frame) appendGeoCircleReference(dst []Vec2, lm Frame, radiusKm float64, n int) []Vec2 {
	if n < 3 {
		n = 3
	}
	sinA, cosA := math.Sincos(radiusKm / EarthRadiusKm)
	stride := 0
	if n <= circleTableN && circleTableN%n == 0 {
		stride = circleTableN / n
	}
	base := len(dst)
	for i, ti := 0, 0; i < n; i, ti = i+1, ti+stride {
		var st, ct float64
		if stride > 0 {
			st, ct = circleSin[ti], circleCos[ti]
		} else {
			st, ct = math.Sincos(2 * math.Pi * float64(i) / float64(n))
		}
		v := Vec3{
			X: cosA*lm.U.X + sinA*(ct*lm.N.X+st*lm.E.X),
			Y: cosA*lm.U.Y + sinA*(ct*lm.N.Y+st*lm.E.Y),
			Z: cosA*lm.U.Z + sinA*(ct*lm.N.Z+st*lm.E.Z),
		}
		dst = append(dst, azimuthalReference(v.Dot(f.E), v.Dot(f.N), v.Dot(f.U)))
	}
	ensureCCW(dst[base:])
	if ring := Ring(dst[base:]); !ring.IsCCW() {
		reverseRing(ring)
	}
	return dst
}

// The whole-grid forms the tests still read.

// AddRegion adds weight w to every cell whose centre lies inside r.
func (g *Grid) AddRegion(r *Region, w float64) {
	g.forEachSpan(r, func(y, x0, x1 int) {
		row := g.Weight[y*g.W+x0 : y*g.W+x1+1]
		for i := range row {
			row[i] += w
		}
	})
}

// AreaAtOrAbove returns the total area of the cells at or above level
// (LevelFloor).
func (g *Grid) AreaAtOrAbove(level float64) float64 {
	n, floor := 0, LevelFloor(level)
	for _, w := range g.Weight {
		if w >= floor {
			n++
		}
	}
	return float64(n) * g.CellArea()
}

// CellAt returns the cell indices containing plane point p (may be out of
// range; callers check).
func (g *Grid) CellAt(p Vec2) (int, int) {
	return int(math.Floor((p.X - g.Min.X) / g.CellKm)),
		int(math.Floor((p.Y - g.Min.Y) / g.CellKm))
}

// BearingTo returns the initial great-circle bearing from p to q in radians,
// measured clockwise from north, in [0, 2π).
func (p Point) BearingTo(q Point) float64 {
	lat1, lon1 := deg2rad(p.Lat), deg2rad(p.Lon)
	lat2, lon2 := deg2rad(q.Lat), deg2rad(q.Lon)
	dLon := lon2 - lon1
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := math.Atan2(y, x)
	if b < 0 {
		b += 2 * math.Pi
	}
	return b
}
