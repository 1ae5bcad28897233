package geo

// BBox is an axis-aligned bounding box in WGS-84 coordinates. It is assumed
// not to cross the antimeridian, which holds for all metro-scale areas this
// library targets.
type BBox struct {
	MinLat float64
	MinLon float64
	MaxLat float64
	MaxLon float64
}

// NewBBoxAround returns the bounding box of a square of the given side
// length (meters) centered at c.
func NewBBoxAround(c Point, sideM float64) BBox {
	half := sideM / 2
	n := c.Offset(0, half)
	s := c.Offset(180, half)
	e := c.Offset(90, half)
	w := c.Offset(270, half)
	return BBox{MinLat: s.Lat, MaxLat: n.Lat, MinLon: w.Lon, MaxLon: e.Lon}
}

// Contains reports whether p lies within the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Corners returns the SW and NE corners.
func (b BBox) Corners() (sw, ne Point) {
	return Point{Lat: b.MinLat, Lon: b.MinLon}, Point{Lat: b.MaxLat, Lon: b.MaxLon}
}
