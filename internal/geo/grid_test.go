package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// idsWithinRadius collects what WithinRadius visits, in visit order.
func idsWithinRadius(g *GridIndex, p Point, radiusM float64) []int {
	var ids []int
	g.WithinRadius(p, radiusM, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

func TestNewGridIndexValidation(t *testing.T) {
	if _, err := NewGridIndex(atlanta, 0, nil); err == nil {
		t.Error("cell size 0 should be rejected")
	}
	if _, err := NewGridIndex(atlanta, -5, nil); err == nil {
		t.Error("negative cell size should be rejected")
	}
	g, err := NewGridIndex(atlanta, 1000, nil)
	if err != nil {
		t.Fatalf("valid cell size rejected: %v", err)
	}
	if len(g.items) != 0 || g.AnyWithinRadius(atlanta, 1e9) {
		t.Error("an index of no points must match nothing")
	}
	// A table cannot be sized from a point that projects to NaN or ±Inf.
	for _, bad := range []Point{
		{Lat: math.NaN(), Lon: -84}, {Lat: 33, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: -84}, {Lat: 33, Lon: math.Inf(-1)},
	} {
		if _, err := NewGridIndex(atlanta, 1000, []Point{atlanta, bad}); err == nil {
			t.Errorf("point %v should be rejected", bad)
		}
	}
}

// mapGrid is the layout GridIndex had before it became a dense table: a
// map from cell to the points inserted into it. Its visit order — cell
// rows south to north, cells west to east, points in insertion order — is
// what kriging's and IDW's sums were recorded under, so it is the oracle
// for order as well as for membership.
type mapGrid struct {
	cellM float64
	cells map[[2]int32][]gridItem
}

func newMapGrid(proj *Projector, cellM float64, pts []Point) *mapGrid {
	m := &mapGrid{cellM: cellM, cells: make(map[[2]int32][]gridItem)}
	for i, p := range pts {
		xy := proj.ToXY(p)
		k := m.key(xy)
		m.cells[k] = append(m.cells[k], gridItem{id: i, xy: xy})
	}
	return m
}

func (m *mapGrid) key(xy XY) [2]int32 {
	return [2]int32{int32(math.Floor(xy.X / m.cellM)), int32(math.Floor(xy.Y / m.cellM))}
}

func (m *mapGrid) idsWithinRadius(q XY, radiusM float64) []int {
	var ids []int
	span := int32(math.Ceil(radiusM / m.cellM))
	c := m.key(q)
	for cy := c[1] - span; cy <= c[1]+span; cy++ {
		for cx := c[0] - span; cx <= c[0]+span; cx++ {
			for _, it := range m.cells[[2]int32{cx, cy}] {
				dx, dy := it.xy.X-q.X, it.xy.Y-q.Y
				if dx*dx+dy*dy <= radiusM*radiusM {
					ids = append(ids, it.id)
				}
			}
		}
	}
	return ids
}

// TestGridMatchesBruteForce is the core correctness property: grid radius
// queries must return exactly the ID set of a brute-force scan, and in
// exactly the order the map layout visited it.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	proj := NewProjector(atlanta)

	const n = 500
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = atlanta.Offset(rng.Float64()*360, rng.Float64()*20000)
	}
	copy(pts[n-20:], pts[:20]) // coincident points: ties within a cell
	g, err := NewGridIndex(atlanta, 2000, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.items) != n {
		t.Fatalf("%d items indexed, want %d", len(g.items), n)
	}
	if g.cellM != 2000 {
		t.Fatalf("cell grew to %v m: the order oracle needs the same cells", g.cellM)
	}
	old := newMapGrid(proj, 2000, pts)

	for trial := 0; trial < 200; trial++ {
		// Queries from inside, the edge of and far outside the table.
		q := atlanta.Offset(rng.Float64()*360, rng.Float64()*40000)
		radius := 500 + rng.Float64()*8000
		if trial%10 == 0 {
			radius = 0
			q = pts[rng.Intn(n)]
		}

		got := idsWithinRadius(g, q, radius)
		qxy := proj.ToXY(q)
		if want := old.idsWithinRadius(qxy, radius); !slices.Equal(got, want) {
			t.Fatalf("trial %d: visit order %v, the map layout's %v", trial, got, want)
		}

		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if proj.ToXY(p).DistanceM(qxy) <= radius {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: got ids %v, want %v", trial, got, want)
		}
	}
}

// TestGridTableIsLinearInPoints: a point set spanning the globe at a
// street-sized cell would need ~10¹¹ cells; the cell doubles instead, and
// queries still match brute force.
func TestGridTableIsLinearInPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
	}
	g, err := NewGridIndex(atlanta, 100, pts)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 4 * len(pts); len(g.start) > limit+1 {
		t.Fatalf("%d table entries for %d points, limit %d", len(g.start), len(pts), limit)
	}
	proj := NewProjector(atlanta)
	for trial := 0; trial < 50; trial++ {
		q := Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		radius := rng.Float64() * 5e6
		got := idsWithinRadius(g, q, radius)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if proj.ToXY(p).DistanceM(proj.ToXY(q)) <= radius {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: got ids %v, want %v", trial, got, want)
		}
	}
	// Finite but absurd coordinates size a table too, and NaN queries
	// match nothing.
	far := []Point{{Lat: 1e300, Lon: 1e300}, {Lat: -1e300, Lon: 5}, atlanta}
	if g, err = NewGridIndex(atlanta, 1e-300, far); err != nil {
		t.Fatal(err)
	}
	if got := idsWithinRadius(g, atlanta, 10); !slices.Equal(got, []int{2}) {
		t.Errorf("ids near atlanta among far-off points: %v, want [2]", got)
	}
	if g.AnyWithinRadius(Point{Lat: math.NaN(), Lon: 0}, 1e9) || g.AnyWithinRadius(atlanta, math.NaN()) {
		t.Error("a NaN query must match nothing")
	}
	if got := idsWithinRadius(g, atlanta, math.Inf(1)); len(got) != len(far) {
		t.Errorf("infinite radius matched %v, want all %d", got, len(far))
	}
}

func TestGridAnyWithinRadius(t *testing.T) {
	far := atlanta.Offset(90, 15000)
	g, err := NewGridIndex(atlanta, 1000, []Point{far})
	if err != nil {
		t.Fatal(err)
	}

	if g.AnyWithinRadius(atlanta, 10000) {
		t.Error("no item within 10 km, AnyWithinRadius returned true")
	}
	if !g.AnyWithinRadius(atlanta, 16000) {
		t.Error("item within 16 km missed")
	}
	if g.AnyWithinRadius(atlanta, -1) {
		t.Error("negative radius must match nothing")
	}
}

func TestGridEarlyStop(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = atlanta
	}
	g, err := NewGridIndex(atlanta, 1000, pts)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	g.WithinRadius(atlanta, 100, func(int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop: got %d callbacks, want 3", calls)
	}
}

func TestProjectorRoundTrip(t *testing.T) {
	proj := NewProjector(atlanta)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := atlanta.Offset(rng.Float64()*360, rng.Float64()*30000)
		back := proj.ToPoint(proj.ToXY(p))
		if d := back.DistanceM(p); d > 0.01 {
			t.Fatalf("round trip error %v m for %v", d, p)
		}
	}
}

func TestProjectorDistanceAgreement(t *testing.T) {
	proj := NewProjector(atlanta)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		a := atlanta.Offset(rng.Float64()*360, rng.Float64()*25000)
		b := atlanta.Offset(rng.Float64()*360, rng.Float64()*25000)
		planar := proj.ToXY(a).DistanceM(proj.ToXY(b))
		sphere := a.DistanceM(b)
		// Within 0.2% at metro scale.
		if diff := planar - sphere; diff > 0.002*sphere+0.5 || diff < -0.002*sphere-0.5 {
			t.Fatalf("planar %v vs sphere %v", planar, sphere)
		}
	}
}

func TestBBox(t *testing.T) {
	b := NewBBoxAround(atlanta, 30000)
	if !b.Contains(atlanta) {
		t.Error("box must contain its center")
	}
	if !b.Contains(atlanta.Offset(45, 10000)) {
		t.Error("box must contain interior point")
	}
	if b.Contains(atlanta.Offset(0, 30000)) {
		t.Error("box must not contain far exterior point")
	}
	c := b.Center()
	if c.DistanceM(atlanta) > 50 {
		t.Errorf("center drifted by %v m", c.DistanceM(atlanta))
	}
}
