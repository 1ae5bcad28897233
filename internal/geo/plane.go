package geo

import "math"

// XY is a position on a local tangent plane, in meters. X grows eastward and
// Y grows northward from the projector's origin.
type XY struct {
	X float64
	Y float64
}

// DistanceM returns the Euclidean distance to q in meters.
func (p XY) DistanceM(q XY) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Projector maps WGS-84 points to a local equirectangular tangent plane
// anchored at an origin. For metro-scale areas (tens of kilometers) the
// projection error is negligible relative to shadowing decorrelation
// distances, which makes planar coordinates the natural domain for the RF
// field simulation and for classifier location features.
type Projector struct {
	origin   Point
	cosLat   float64
	mPerDeg  float64 // meters per degree of latitude
	mPerDegE float64 // meters per degree of longitude at origin latitude
}

// NewProjector returns a projector anchored at origin.
func NewProjector(origin Point) *Projector {
	const degToRad = math.Pi / 180
	cosLat := math.Cos(origin.Lat * degToRad)
	mPerDeg := EarthRadiusM * degToRad
	return &Projector{
		origin:   origin,
		cosLat:   cosLat,
		mPerDeg:  mPerDeg,
		mPerDegE: mPerDeg * cosLat,
	}
}

// ToXY projects p onto the local plane.
func (pr *Projector) ToXY(p Point) XY {
	return XY{
		X: (p.Lon - pr.origin.Lon) * pr.mPerDegE,
		Y: (p.Lat - pr.origin.Lat) * pr.mPerDeg,
	}
}

// ToPoint inverts the projection.
func (pr *Projector) ToPoint(xy XY) Point {
	return Point{
		Lat: pr.origin.Lat + xy.Y/pr.mPerDeg,
		Lon: pr.origin.Lon + xy.X/pr.mPerDegE,
	}
}
