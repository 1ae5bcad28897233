package kriging

import (
	"fmt"
	"math"
	"sort"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geo"
)

// IDW is inverse-distance-weighted interpolation — the "linear
// interpolation" member of the measurement-augmented family ([10], [49]):
// the simplest possible field estimator, kept as the floor of the
// interpolation baselines.
type IDW struct {
	proj *geo.Projector
	xs   []geo.XY
	rss  []float64
	grid *geo.GridIndex
}

// idwPower is the distance weighting: the classic inverse square.
const idwPower = 2

// FitIDW builds the interpolator.
func FitIDW(readings []dataset.Reading) (*IDW, error) {
	if len(readings) < neighbors {
		return nil, fmt.Errorf("kriging: %d readings, need ≥%d", len(readings), neighbors)
	}
	m := &IDW{proj: geo.NewProjector(readings[0].Loc)}
	locs := make([]geo.Point, len(readings))
	m.xs = make([]geo.XY, len(readings))
	m.rss = make([]float64, len(readings))
	for i := range readings {
		locs[i] = readings[i].Loc
		m.xs[i] = m.proj.ToXY(readings[i].Loc)
		m.rss[i] = readings[i].Signal.RSSdBm
	}
	grid, err := geo.NewGridIndex(readings[0].Loc, maxLagM/2, locs)
	if err != nil {
		return nil, err
	}
	m.grid = grid
	return m, nil
}

// PredictRSS interpolates the field at p.
func (m *IDW) PredictRSS(p geo.Point) (float64, error) {
	q := m.proj.ToXY(p)
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	for radius := maxLagM / 4.0; radius <= maxLagM*4; radius *= 2 {
		cands = cands[:0]
		m.grid.WithinRadius(p, radius, func(id int) bool {
			cands = append(cands, cand{id: id, d: m.xs[id].DistanceM(q)})
			return true
		})
		if len(cands) >= neighbors {
			break
		}
	}
	if len(cands) < 3 {
		return 0, fmt.Errorf("kriging: only %d neighbors near %v", len(cands), p)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	if len(cands) > neighbors {
		cands = cands[:neighbors]
	}

	var num, den float64
	for _, c := range cands {
		if c.d < 1 {
			return m.rss[c.id], nil // on top of a measurement
		}
		w := 1 / math.Pow(c.d, idwPower)
		num += w * m.rss[c.id]
		den += w
	}
	return num / den, nil
}

// Available answers the white-space query with the same probe geometry as
// the kriging model.
func (m *IDW) Available(p geo.Point) (bool, error) {
	// Probe the whole protection disk: concentric rings out to the
	// protection radius, so decodable regions anywhere within it deny
	// the query.
	probes := []geo.Point{p}
	for _, frac := range []float64{1.0 / 3, 2.0 / 3, 1} {
		r := core.ProtectRadiusM * frac
		for bearing := 0.0; bearing < 360; bearing += 30 {
			probes = append(probes, p.Offset(bearing, r))
		}
	}
	for _, probe := range probes {
		est, err := m.PredictRSS(probe)
		if err != nil {
			return false, nil
		}
		if est > core.ThresholdDBm {
			return false, nil
		}
	}
	return true, nil
}
