// Package geo provides the geodesic primitives used throughout the Waldo
// system: WGS-84 points, great-circle distance, local planar projection,
// bounding boxes, and a spatial grid index for radius queries.
//
// Waldo's protection rule (FCC Algorithm 1) is defined in terms of metric
// distance between measurement locations, so distance computations are the
// hot path of data labeling. All distances are in meters.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusM is the mean Earth radius in meters (IUGG).
const EarthRadiusM = 6371008.8

// Point is a WGS-84 coordinate in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point lies within the WGS-84 coordinate domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// DistanceM returns the great-circle (haversine) distance to q in meters.
func (p Point) DistanceM(q Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLat := (q.Lat - p.Lat) * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusM * math.Asin(math.Sqrt(h))
}

// BearingDeg returns the initial great-circle bearing from p to q in degrees
// clockwise from true north, in [0, 360).
func (p Point) BearingDeg(q Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := p.Lat * degToRad
	lat2 := q.Lat * degToRad
	dLon := (q.Lon - p.Lon) * degToRad

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	b := math.Atan2(y, x) / degToRad
	if b < 0 {
		b += 360
	}
	return b
}

// Offset returns the point reached by traveling distM meters from p along
// the given bearing (degrees clockwise from north).
func (p Point) Offset(bearingDeg, distM float64) Point {
	const degToRad = math.Pi / 180
	lat1 := p.Lat * degToRad
	lon1 := p.Lon * degToRad
	brng := bearingDeg * degToRad
	ad := distM / EarthRadiusM

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(
		math.Sin(brng)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalize longitude to [-180, 180).
	lon2 = math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: lat2 / degToRad, Lon: lon2 / degToRad}
}
