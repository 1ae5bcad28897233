package experiments

import (
	"fmt"
	"strings"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// gridLattice is the side of the lattice of area-truth points in a cell.
const gridLattice = 10

// GridResult scores the served availability grid (GET /v1/availability)
// against the oracle of Fig. 17: the RTL-SDR campaign is bootstrapped
// into one server, and into three shards that each hold the cells the
// bench ring (s0..s2) gives them, and every (channel, cell) verdict the
// grid serves is checked at a 10 × 10 lattice of points in the cell.
type GridResult struct {
	// Readings is the campaign's readings per channel.
	Readings int
	// Topologies holds one server, then three shards.
	Topologies []GridTopology
}

// GridTopology is one deployment's grid, scored per channel.
type GridTopology struct {
	// Name labels the deployment.
	Name string
	// Channels are the scored channels, ascending; ByChannel and Total
	// their scores.
	Channels  []rfenv.Channel
	ByChannel map[rfenv.Channel]AreaScore
	Total     AreaScore
}

// AreaScore tallies grid verdicts and the lattice points inside them.
type AreaScore struct {
	// Free, Occupied and Uncertain count (channel, cell) verdicts.
	Free, Occupied, Uncertain int
	// FreePoints counts lattice points inside free cells; FalseSafe those
	// of them the oracle protects.
	FreePoints, FalseSafe int
	// Vacant counts lattice points the oracle calls Safe inside any cell
	// with a verdict; Found those of them inside free cells.
	Vacant, Found int
}

// FalseSafeShare is the area-false-safe of free cells: the share of
// their lattice points the oracle protects.
func (a AreaScore) FalseSafeShare() float64 { return share(a.FalseSafe, a.FreePoints) }

// FoundShare is the share of the oracle's white space the grid calls
// free.
func (a AreaScore) FoundShare() float64 { return share(a.Found, a.Vacant) }

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func (a *AreaScore) add(b AreaScore) {
	a.Free += b.Free
	a.Occupied += b.Occupied
	a.Uncertain += b.Uncertain
	a.FreePoints += b.FreePoints
	a.FalseSafe += b.FalseSafe
	a.Vacant += b.Vacant
	a.Found += b.Found
}

// GridAvailability builds and scores the served grids.
func (s *Suite) GridAvailability() (*GridResult, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing(cluster.RingConfig{}, []string{"s0", "s1", "s2"})
	if err != nil {
		return nil, err
	}
	var all []dataset.Reading
	for _, ch := range camp.Channels {
		all = append(all, camp.Readings(ch, sensor.KindRTLSDR)...)
	}
	shards := map[string][]dataset.Reading{}
	for _, r := range all {
		id := ring.Owner(cluster.RouteKey{Channel: r.Channel, Cell: cluster.CellOf(r.Loc, 0)})
		shards[id] = append(shards[id], r)
	}
	res := &GridResult{Readings: len(camp.Route.Points)}
	for _, topo := range []struct {
		name  string
		parts [][]dataset.Reading
	}{
		{"1 server", [][]dataset.Reading{all}},
		{"3 shards", [][]dataset.Reading{shards["s0"], shards["s1"], shards["s2"]}},
	} {
		var grids []*geoindex.Snapshot
		for _, part := range topo.parts {
			g, err := servedGrid(part)
			if err != nil {
				return nil, fmt.Errorf("experiments: grid %s: %w", topo.name, err)
			}
			grids = append(grids, g)
		}
		t, err := scoreGrids(camp, topo.name, grids)
		if err != nil {
			return nil, err
		}
		res.Topologies = append(res.Topologies, t)
	}
	return res, nil
}

// servedGrid bootstraps a server with rs, as waldo-server -data does,
// and returns the grid it serves.
func servedGrid(rs []dataset.Reading) (*geoindex.Snapshot, error) {
	srv := dbserver.New(dbserver.Config{Constructor: core.ConstructorConfig{
		ClusterK: 3, Classifier: core.KindSVM, Features: features.SetLocationRSSCFT,
	}})
	defer srv.Close()
	if err := srv.Bootstrap(rs); err != nil {
		return nil, err
	}
	return srv.GeoIndex().Snapshot(), nil
}

// scoreGrids scores the verdicts of several grids holding disjoint
// cells (one per shard) against the oracle on each channel.
func scoreGrids(camp *wardrive.Campaign, name string, grids []*geoindex.Snapshot) (GridTopology, error) {
	t := GridTopology{Name: name, Channels: camp.Channels, ByChannel: map[rfenv.Channel]AreaScore{}}
	for _, ch := range camp.Channels {
		var status []geoindex.Status
		var lattice []geo.Point
		seen := map[geoindex.Cell]bool{}
		for _, p := range camp.Route.Points {
			c := geoindex.CellOf(p, geoindex.DefaultCellDeg)
			if seen[c] {
				continue
			}
			seen[c] = true
			for _, g := range grids {
				for _, v := range g.Lookup(c) {
					if v.Channel == ch && v.Sensor == sensor.KindRTLSDR {
						status = append(status, v.Status)
						lattice = append(lattice, cellLattice(c)...)
					}
				}
			}
		}
		truth, err := oracleAt(camp, ch, lattice)
		if err != nil {
			return t, err
		}
		truth = truth[len(camp.Route.Points):]
		var a AreaScore
		for i, st := range status {
			switch st {
			case geoindex.StatusFree:
				a.Free++
			case geoindex.StatusOccupied:
				a.Occupied++
			default:
				a.Uncertain++
			}
			for _, l := range truth[i*gridLattice*gridLattice : (i+1)*gridLattice*gridLattice] {
				free := st == geoindex.StatusFree
				if free {
					a.FreePoints++
				}
				switch {
				case l == dataset.LabelNotSafe && free:
					a.FalseSafe++
				case l == dataset.LabelSafe:
					a.Vacant++
					if free {
						a.Found++
					}
				}
			}
		}
		t.ByChannel[ch] = a
		t.Total.add(a)
	}
	return t, nil
}

// cellLattice is a cell's gridLattice² area-truth points, each at the
// center of its sub-square.
func cellLattice(c geoindex.Cell) []geo.Point {
	const d = geoindex.DefaultCellDeg
	out := make([]geo.Point, 0, gridLattice*gridLattice)
	for i := 0; i < gridLattice; i++ {
		for j := 0; j < gridLattice; j++ {
			out = append(out, geo.Point{
				Lat: (float64(c.X) + (float64(i)+0.5)/gridLattice) * d,
				Lon: (float64(c.Y) + (float64(j)+0.5)/gridLattice) * d,
			})
		}
	}
	return out
}

// Render implements the experiment report.
func (r *GridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability grid (served GET /v1/availability) against the oracle, %d readings/channel, %d×%d lattice per cell\n",
		r.Readings, gridLattice, gridLattice)
	for _, t := range r.Topologies {
		fmt.Fprintf(&b, "%s:\n  ch   free occ unc  area-false-safe  white space found\n", t.Name)
		row := func(label string, a AreaScore) {
			fmt.Fprintf(&b, "  %-4s %4d %3d %3d  %6.2f%% (%d/%d)  %5.1f%% (%d/%d)\n", label,
				a.Free, a.Occupied, a.Uncertain, 100*a.FalseSafeShare(), a.FalseSafe, a.FreePoints,
				100*a.FoundShare(), a.Found, a.Vacant)
		}
		for _, ch := range t.Channels {
			row(fmt.Sprint(int(ch)), t.ByChannel[ch])
		}
		row("all", t.Total)
	}
	return b.String()
}
