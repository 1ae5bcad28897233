// Package wardrive generates measurement-collection drives over a metro
// area and runs full multi-sensor campaigns against an RF environment,
// producing the labeled datasets the rest of the system trains on.
//
// The paper's campaign drove ≈800 km of Atlanta roads collecting 5,282
// readings per channel per sensor, with consecutive same-channel readings
// separated by more than 20 m (shadowing decorrelation, §2.1). Routes here
// follow a street-grid serpentine — east–west sweeps plus a north–south
// pass — so the data has the road-following, non-uniform spatial structure
// that the paper calls out as a modeling challenge (§3.2).
package wardrive

import (
	"fmt"
	"math/rand"

	"github.com/wsdetect/waldo/internal/geo"
)

// MinReadingSpacingM is the paper's minimum separation between readings of
// the same channel (§2.1: "always separated by more than 20 meters").
const MinReadingSpacingM = 20.0

// The street grid's spacing between parallel streets, and the standard
// deviation of per-sample GPS error, in meters.
const (
	streetSpacingM = 1800
	gpsJitterM     = 4
)

// RouteConfig describes a drive.
type RouteConfig struct {
	// Area is the region to cover.
	Area geo.BBox
	// Samples is the number of reading locations to produce. Default
	// 5282, the paper's per-channel count.
	Samples int
	// Seed drives GPS jitter and sampling phase.
	Seed int64
}

func (c *RouteConfig) defaults() error {
	if c.Area.MinLat >= c.Area.MaxLat || c.Area.MinLon >= c.Area.MaxLon {
		return fmt.Errorf("wardrive: degenerate area %+v", c.Area)
	}
	if c.Samples == 0 {
		c.Samples = 5282
	}
	if c.Samples < 0 {
		return fmt.Errorf("wardrive: negative sample count %d", c.Samples)
	}
	return nil
}

// Route is an ordered sequence of reading locations along a drive.
type Route struct {
	// Points are the sample locations in drive order.
	Points []geo.Point
	// LengthM is the total driven distance.
	LengthM float64
}

// GenerateRoute lays out the street-grid serpentine and samples reading
// locations along it at even spacing (never closer than
// MinReadingSpacingM).
func GenerateRoute(cfg RouteConfig) (*Route, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	proj := geo.NewProjector(cfg.Area.Center())
	sw, ne := cfg.Area.Corners()
	lo := proj.ToXY(sw)
	hi := proj.ToXY(ne)

	waypoints := serpentine(lo, hi, streetSpacingM, false)
	waypoints = append(waypoints, serpentine(lo, hi, streetSpacingM*1.6, true)...)

	var length float64
	for i := 1; i < len(waypoints); i++ {
		length += waypoints[i].DistanceM(waypoints[i-1])
	}
	if length == 0 {
		return nil, fmt.Errorf("wardrive: area too small for a route")
	}

	// 3% slack absorbs candidates dropped at sharp corners for violating
	// the minimum-spacing rule.
	spacing := length / (float64(cfg.Samples) * 1.03)
	if spacing < MinReadingSpacingM {
		return nil, fmt.Errorf("wardrive: %d samples on a %.0f m route violates the %v m minimum spacing",
			cfg.Samples, length, MinReadingSpacingM)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	points := make([]geo.Point, 0, cfg.Samples)
	// Walk the polyline emitting a sample every `spacing` meters of path.
	// Around sharp corners path spacing does not bound Euclidean spacing,
	// so candidates closer than the minimum to the previous kept sample
	// are skipped (the campaign rule is a hard >20 m separation).
	var lastXY geo.XY
	carry := spacing / 2 // phase offset into the first segment
	for i := 1; i < len(waypoints) && len(points) < cfg.Samples; i++ {
		a, b := waypoints[i-1], waypoints[i]
		segLen := a.DistanceM(b)
		for carry <= segLen && len(points) < cfg.Samples {
			t := carry / segLen
			xy := geo.XY{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
			xy.X += rng.NormFloat64() * gpsJitterM
			xy.Y += rng.NormFloat64() * gpsJitterM
			carry += spacing
			if len(points) > 0 && xy.DistanceM(lastXY) < MinReadingSpacingM*1.05 {
				continue
			}
			points = append(points, proj.ToPoint(xy))
			lastXY = xy
		}
		carry -= segLen
	}
	if len(points) < cfg.Samples {
		return nil, fmt.Errorf("wardrive: produced %d of %d samples (route too short)", len(points), cfg.Samples)
	}
	return &Route{Points: points, LengthM: length}, nil
}

// serpentine builds a boustrophedon sweep across the box: horizontal rows
// when transpose is false, vertical columns when true.
func serpentine(lo, hi geo.XY, spacing float64, transpose bool) []geo.XY {
	var pts []geo.XY
	if transpose {
		forward := true
		for x := lo.X + spacing/2; x <= hi.X; x += spacing {
			if forward {
				pts = append(pts, geo.XY{X: x, Y: lo.Y}, geo.XY{X: x, Y: hi.Y})
			} else {
				pts = append(pts, geo.XY{X: x, Y: hi.Y}, geo.XY{X: x, Y: lo.Y})
			}
			forward = !forward
		}
		return pts
	}
	forward := true
	for y := lo.Y + spacing/2; y <= hi.Y; y += spacing {
		if forward {
			pts = append(pts, geo.XY{X: lo.X, Y: y}, geo.XY{X: hi.X, Y: y})
		} else {
			pts = append(pts, geo.XY{X: hi.X, Y: y}, geo.XY{X: lo.X, Y: y})
		}
		forward = !forward
	}
	return pts
}
