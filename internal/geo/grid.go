package geo

import (
	"fmt"
	"math"
)

// GridIndex is a build-once uniform grid over a local tangent plane that
// answers "which indexed points lie within R meters of this point"
// queries. It backs the Algorithm 1 labeler, whose 6 km protection radius
// makes naive O(n²) neighborhood scans the bottleneck of dataset
// construction.
//
// The points are counting-sorted by cell into one slice behind a
// row-major table of cell starts, so the cells a query covers in one grid
// row are one contiguous run. A point's ID is its index in the slice the
// index was built from. The zero value is not usable; construct with
// NewGridIndex.
type GridIndex struct {
	proj  *Projector
	cellM float64
	// minCX, minCY are the cell coordinates floor(x/cellM) of the
	// bounding box's corner: whole numbers, but kept as floats because a
	// far-off point set puts them past any integer type.
	minCX, minCY float64
	nx, ny       int
	start        []int32 // nx·ny+1 offsets into items; cell (cx, cy) is cy·nx+cx
	items        []gridItem
}

type gridItem struct {
	id int
	xy XY
}

// NewGridIndex indexes points, projected around origin, in cells cellM
// meters on a side (best on the order of the query radius). The cell table
// spans the points' bounding box, and cellM is doubled until it has at
// most max(1024, 4·len(points)) entries, so memory is linear in the number
// of points however far apart they lie. A point that does not project to
// finite coordinates is an error.
func NewGridIndex(origin Point, cellM float64, points []Point) (*GridIndex, error) {
	if cellM <= 0 || math.IsNaN(cellM) {
		return nil, fmt.Errorf("geo: cell size must be positive, got %v", cellM)
	}
	if len(points) > math.MaxInt32 {
		return nil, fmt.Errorf("geo: %d points exceed the grid index's 32-bit offsets", len(points))
	}
	g := &GridIndex{proj: NewProjector(origin), cellM: cellM, items: make([]gridItem, len(points))}
	if len(points) == 0 {
		return g, nil
	}
	xys := make([]XY, len(points))
	lo, hi := XY{math.Inf(1), math.Inf(1)}, XY{math.Inf(-1), math.Inf(-1)}
	for i, p := range points {
		xy := g.proj.ToXY(p)
		if math.IsInf(xy.X, 0) || math.IsNaN(xy.X) || math.IsInf(xy.Y, 0) || math.IsNaN(xy.Y) {
			return nil, fmt.Errorf("geo: point %d %v does not project to finite coordinates", i, p)
		}
		xys[i] = xy
		lo, hi = XY{min(lo.X, xy.X), min(lo.Y, xy.Y)}, XY{max(hi.X, xy.X), max(hi.Y, xy.Y)}
	}
	for limit := float64(max(1024, 4*len(points))); ; g.cellM *= 2 {
		g.minCX, g.minCY = math.Floor(lo.X/g.cellM), math.Floor(lo.Y/g.cellM)
		nx := math.Floor(hi.X/g.cellM) - g.minCX + 1
		ny := math.Floor(hi.Y/g.cellM) - g.minCY + 1
		if nx*ny <= limit { // false for the NaN of Inf − Inf too
			g.nx, g.ny = int(nx), int(ny)
			break
		}
	}

	// Counting sort by cell: stable, so a cell's points stay in the order
	// they were given and queries report them in that order.
	g.start = make([]int32, g.nx*g.ny+1)
	for _, xy := range xys {
		g.start[g.cellOf(xy)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	next := append([]int32(nil), g.start...)
	for i, xy := range xys {
		c := g.cellOf(xy)
		g.items[next[c]] = gridItem{id: i, xy: xy}
		next[c]++
	}
	return g, nil
}

// cellOf returns the table slot of an indexed point.
func (g *GridIndex) cellOf(xy XY) int {
	cx := int(math.Floor(xy.X/g.cellM) - g.minCX)
	cy := int(math.Floor(xy.Y/g.cellM) - g.minCY)
	return cy*g.nx + cx
}

// cellRange clamps cells center−span … center+span to one table axis of n
// cells from origin; ok is false when none is in it, or v is NaN.
func cellRange(v, cellM, span, origin float64, n int) (lo, hi int, ok bool) {
	center := math.Floor(v/cellM) - origin
	l, h := max(center-span, 0), min(center+span, float64(n-1))
	if !(l <= h) {
		return 0, 0, false
	}
	return int(l), int(h), true
}

// WithinRadius calls fn for every indexed point within radiusM meters of p
// (planar distance): grid rows south to north, within a row cells west to
// east, within a cell in the order the points were given. Iteration stops
// early if fn returns false.
func (g *GridIndex) WithinRadius(p Point, radiusM float64, fn func(id int) bool) {
	if radiusM < 0 || len(g.items) == 0 {
		return
	}
	xy := g.proj.ToXY(p)
	span := math.Ceil(radiusM / g.cellM)
	x0, x1, okX := cellRange(xy.X, g.cellM, span, g.minCX, g.nx)
	y0, y1, okY := cellRange(xy.Y, g.cellM, span, g.minCY, g.ny)
	if !okX || !okY {
		return
	}
	r2 := radiusM * radiusM
	for cy := y0; cy <= y1; cy++ {
		row := g.start[cy*g.nx:]
		for _, it := range g.items[row[x0]:row[x1+1]] {
			dx := it.xy.X - xy.X
			dy := it.xy.Y - xy.Y
			if dx*dx+dy*dy <= r2 {
				if !fn(it.id) {
					return
				}
			}
		}
	}
}

// AnyWithinRadius reports whether at least one point lies within radiusM of p.
func (g *GridIndex) AnyWithinRadius(p Point, radiusM float64) bool {
	found := false
	g.WithinRadius(p, radiusM, func(int) bool {
		found = true
		return false
	})
	return found
}
