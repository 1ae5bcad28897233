package geoindex

import (
	"math"

	"github.com/wsdetect/waldo/internal/geo"
)

// DefaultStepM is the default trajectory sampling interval: ~1/5 of a
// default cell's latitude extent, so a route cannot skip a cell it
// crosses near-perpendicularly.
const DefaultStepM = 1000

// Route size bounds, enforced by the serving layer: a polyline is
// capped at MaxRoutePoints waypoints and its sampled form at
// MaxRouteSamples points, bounding the work one /v1/route request can
// demand to a few milliseconds of map lookups.
const (
	// MaxRoutePoints caps the waypoints in one route request.
	MaxRoutePoints = 256
	// MaxRouteSamples caps the interpolated samples along a route.
	MaxRouteSamples = 8192
)

// DefaultHorizonTauS is the default e-folding time (seconds) of the
// horizon confidence decay: without timestamped readings the index
// cannot model per-channel churn, so a requested validity horizon
// discounts every confidence by exp(-horizon/τ) — an availability
// claimed for "the next hour" with τ = 1 h keeps ~37 % of its
// confidence. The temporal workload (ROADMAP: time-varying spectrum)
// will replace this with measured per-channel occupancy dynamics.
const DefaultHorizonTauS = 3600

// ConfidenceDecay returns the multiplicative confidence discount for a
// validity horizon of horizonS seconds. tauS ≤ 0 means
// DefaultHorizonTauS; horizonS ≤ 0 means no decay (1.0).
func ConfidenceDecay(horizonS, tauS float64) float64 {
	if horizonS <= 0 {
		return 1
	}
	if tauS <= 0 {
		tauS = DefaultHorizonTauS
	}
	return math.Exp(-horizonS / tauS)
}

// RouteSegment is one cell-constant stretch of a sampled trajectory:
// every interpolated point between EnterM and ExitM meters along the
// route falls in Cell.
type RouteSegment struct {
	// Cell is the grid cell the segment traverses.
	Cell Cell
	// From and To are the first and last sampled points inside the
	// cell (To is the entry point of the next cell for all but the
	// final segment).
	From, To geo.Point
	// EnterM and ExitM are the segment's span in meters along the
	// route, measured from its first waypoint.
	EnterM, ExitM float64
}

// SampleRoute interpolates a polyline at stepM-meter intervals
// (great-circle interpolation within each leg), quantizes every sample
// with [CellOf], and coalesces consecutive same-cell samples into
// [RouteSegment]s. The result is a pure function of (points, stepM,
// cellDeg) — a gateway and a shard sampling the same request produce
// identical segment geometry, so their answers agree segment by
// segment. stepM ≤ 0 means DefaultStepM;
// cellDeg ≤ 0 means DefaultCellDeg. Fewer than two waypoints yield a
// single zero-length segment (one waypoint) or nil (none).
func SampleRoute(points []geo.Point, stepM, cellDeg float64) []RouteSegment {
	if len(points) == 0 {
		return nil
	}
	if stepM <= 0 {
		stepM = DefaultStepM
	}
	if len(points) == 1 {
		c := CellOf(points[0], cellDeg)
		return []RouteSegment{{Cell: c, From: points[0], To: points[0]}}
	}

	var segs []RouteSegment
	cur := RouteSegment{Cell: CellOf(points[0], cellDeg), From: points[0], To: points[0]}
	distM := 0.0
	visit := func(p geo.Point, atM float64) {
		c := CellOf(p, cellDeg)
		if c == cur.Cell {
			cur.To, cur.ExitM = p, atM
			return
		}
		// The boundary is approximated by the first sample past it:
		// the closed segment ends where the new one begins.
		cur.To, cur.ExitM = p, atM
		segs = append(segs, cur)
		cur = RouteSegment{Cell: c, From: p, To: p, EnterM: atM, ExitM: atM}
	}
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		legM := a.DistanceM(b)
		if legM == 0 {
			continue
		}
		brg := a.BearingDeg(b)
		steps := int(math.Ceil(legM / stepM))
		for s := 1; s <= steps; s++ {
			var p geo.Point
			var at float64
			if s == steps {
				// Land exactly on the waypoint: interpolation error must
				// not leak into the next leg's geometry.
				p, at = b, distM+legM
			} else {
				p, at = a.Offset(brg, float64(s)*stepM), distM+float64(s)*stepM
			}
			visit(p, at)
		}
		distM += legM
	}
	return append(segs, cur)
}

// SampleCount reports how many interpolated samples SampleRoute will
// visit for a polyline, so the serving layer can reject oversized
// requests before doing the work.
func SampleCount(points []geo.Point, stepM float64) int {
	if stepM <= 0 {
		stepM = DefaultStepM
	}
	n := 1
	for i := 1; i < len(points); i++ {
		legM := points[i-1].DistanceM(points[i])
		if legM == 0 {
			continue
		}
		n += int(math.Ceil(legM / stepM))
	}
	return n
}
