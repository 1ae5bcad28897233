// Package kriging implements ordinary kriging interpolation of RSS fields,
// the geostatistical member of the measurement-augmented database family
// the paper cites as prior work ([49]: "Revisiting TV coverage estimation
// with measurement-based statistical interpolation", and [10]). Where
// V-Scope fits a radial propagation law, kriging interpolates the field
// directly from nearby measurements weighted by a fitted spatial
// covariance (variogram) — strictly more expressive than a distance law,
// but still location-only: at query time it cannot see the device's own
// spectrum view, which is Waldo's edge.
package kriging

import (
	"fmt"
	"math"
	"sort"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geo"
)

// Config parameterizes model fitting and prediction.
type Config struct {
	// Neighbors is the number of nearest measurements used per
	// prediction (local kriging); default 16.
	Neighbors int
	// MaxLagM is the maximum separation used when fitting the
	// variogram; default 8000 m.
	MaxLagM float64
	// LagBins is the number of variogram bins; default 20.
	LagBins int
	// VariogramPairs caps the random pair sample used for the empirical
	// variogram; default 200000.
	VariogramPairs int
	// ThresholdDBm is the white-space decision level; 0 means −84.
	ThresholdDBm float64
	// ProtectRadiusM is the protection dilation; 0 means 6000.
	ProtectRadiusM float64
}

func (c *Config) defaults() error {
	if c.Neighbors == 0 {
		c.Neighbors = 16
	}
	if c.MaxLagM == 0 {
		c.MaxLagM = 8000
	}
	if c.LagBins == 0 {
		c.LagBins = 20
	}
	if c.VariogramPairs == 0 {
		c.VariogramPairs = 200000
	}
	if c.ThresholdDBm == 0 {
		c.ThresholdDBm = -84
	}
	if c.ProtectRadiusM == 0 {
		c.ProtectRadiusM = 6000
	}
	if c.Neighbors < 3 || c.MaxLagM <= 0 || c.LagBins < 4 || c.VariogramPairs < 100 {
		return fmt.Errorf("kriging: invalid config %+v", *c)
	}
	return nil
}

// Variogram is a fitted exponential variogram
// γ(h) = nugget + sill·(1 − e^{−h/range}).
type Variogram struct {
	Nugget float64
	Sill   float64
	RangeM float64
}

// At evaluates the variogram at separation h meters.
func (v Variogram) At(h float64) float64 {
	if h <= 0 {
		return 0
	}
	return v.Nugget + v.Sill*(1-math.Exp(-h/v.RangeM))
}

// Model is a fitted kriging interpolator for one channel.
type Model struct {
	cfg   Config
	vario Variogram
	proj  *geo.Projector
	xs    []geo.XY
	rss   []float64
	grid  *geo.GridIndex
}

// Fit builds the interpolator from one channel's readings.
func Fit(readings []dataset.Reading, cfg Config) (*Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if len(readings) < cfg.Neighbors+1 {
		return nil, fmt.Errorf("kriging: %d readings, need more than %d", len(readings), cfg.Neighbors)
	}
	ch := readings[0].Channel
	for i := range readings {
		if readings[i].Channel != ch {
			return nil, fmt.Errorf("kriging: mixed channels")
		}
	}

	m := &Model{cfg: cfg, proj: geo.NewProjector(readings[0].Loc)}
	locs := make([]geo.Point, len(readings))
	m.xs = make([]geo.XY, len(readings))
	m.rss = make([]float64, len(readings))
	for i := range readings {
		locs[i] = readings[i].Loc
		m.xs[i] = m.proj.ToXY(readings[i].Loc)
		m.rss[i] = readings[i].Signal.RSSdBm
	}
	grid, err := geo.NewGridIndex(readings[0].Loc, cfg.MaxLagM/2, locs)
	if err != nil {
		return nil, err
	}
	m.grid = grid

	vario, err := fitVariogram(m.xs, m.rss, cfg)
	if err != nil {
		return nil, err
	}
	m.vario = vario
	return m, nil
}

// Variogram exposes the fitted spatial covariance (for reports).
func (m *Model) Variogram() Variogram { return m.vario }

// fitVariogram computes the empirical semivariogram on a deterministic
// pair sample and fits the exponential model by coarse grid search.
func fitVariogram(xs []geo.XY, rss []float64, cfg Config) (Variogram, error) {
	binW := cfg.MaxLagM / float64(cfg.LagBins)
	sum := make([]float64, cfg.LagBins)
	cnt := make([]int, cfg.LagBins)

	n := len(xs)
	// Deterministic strided pair sample.
	stride := n*n/cfg.VariogramPairs + 1
	pair := 0
	for idx := 0; idx < n*n; idx += stride {
		i := idx / n
		j := idx % n
		if i >= j {
			continue
		}
		d := xs[i].DistanceM(xs[j])
		if d >= cfg.MaxLagM {
			continue
		}
		bin := int(d / binW)
		diff := rss[i] - rss[j]
		sum[bin] += diff * diff / 2
		cnt[bin]++
		pair++
	}
	if pair < 50 {
		return Variogram{}, fmt.Errorf("kriging: only %d usable pairs for the variogram", pair)
	}

	lag := make([]float64, 0, cfg.LagBins)
	gamma := make([]float64, 0, cfg.LagBins)
	for b := 0; b < cfg.LagBins; b++ {
		if cnt[b] < 5 {
			continue
		}
		lag = append(lag, (float64(b)+0.5)*binW)
		gamma = append(gamma, sum[b]/float64(cnt[b]))
	}
	if len(lag) < 4 {
		return Variogram{}, fmt.Errorf("kriging: too few populated variogram bins")
	}

	// Grid-search the exponential fit.
	sorted := append([]float64(nil), gamma...)
	sort.Float64s(sorted)
	maxGamma := sorted[len(sorted)-1]
	best := Variogram{}
	bestErr := math.Inf(1)
	for _, nug := range []float64{0, maxGamma * 0.1, maxGamma * 0.25} {
		for fs := 0.5; fs <= 1.5; fs += 0.125 {
			sill := maxGamma * fs
			for rge := binW; rge <= cfg.MaxLagM; rge += binW {
				cand := Variogram{Nugget: nug, Sill: sill, RangeM: rge}
				var ss float64
				for k := range lag {
					r := gamma[k] - cand.At(lag[k])
					ss += r * r
				}
				if ss < bestErr {
					bestErr = ss
					best = cand
				}
			}
		}
	}
	if best.RangeM == 0 {
		return Variogram{}, fmt.Errorf("kriging: variogram fit failed")
	}
	return best, nil
}

// PredictRSS interpolates the field at p with local ordinary kriging.
func (m *Model) PredictRSS(p geo.Point) (float64, error) {
	ids := m.nearest(p, m.cfg.Neighbors)
	if len(ids) < 3 {
		return 0, fmt.Errorf("kriging: only %d neighbors near %v", len(ids), p)
	}
	q := m.proj.ToXY(p)
	k := len(ids)

	// Ordinary kriging system: [Γ 1; 1ᵀ 0] [w; μ] = [γ; 1].
	dim := k + 1
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a[i][j] = m.vario.At(m.xs[ids[i]].DistanceM(m.xs[ids[j]]))
		}
		a[i][k] = 1
		a[i][dim] = m.vario.At(m.xs[ids[i]].DistanceM(q))
	}
	for j := 0; j < k; j++ {
		a[k][j] = 1
	}
	a[k][k] = 0
	a[k][dim] = 1

	w, err := solve(a)
	if err != nil {
		return 0, fmt.Errorf("kriging: singular system at %v: %w", p, err)
	}
	var est float64
	for i := 0; i < k; i++ {
		est += w[i] * m.rss[ids[i]]
	}
	return est, nil
}

// Available answers the white-space query: the predicted field must stay
// under the threshold everywhere within the protection radius, probed at
// the point and at ring samples.
func (m *Model) Available(p geo.Point) (bool, error) {
	// Probe the whole protection disk: concentric rings out to the
	// protection radius, so decodable regions anywhere within it deny
	// the query.
	probes := []geo.Point{p}
	for _, frac := range []float64{1.0 / 3, 2.0 / 3, 1} {
		r := m.cfg.ProtectRadiusM * frac
		for bearing := 0.0; bearing < 360; bearing += 30 {
			probes = append(probes, p.Offset(bearing, r))
		}
	}
	for _, probe := range probes {
		est, err := m.PredictRSS(probe)
		if err != nil {
			// Outside measured coverage: no corroboration, stay safe
			// for incumbents.
			return false, nil
		}
		if est > m.cfg.ThresholdDBm {
			return false, nil
		}
	}
	return true, nil
}

// nearest collects the ids of the closest stored readings, widening the
// search ring until enough are found.
func (m *Model) nearest(p geo.Point, k int) []int {
	type cand struct {
		id int
		d  float64
	}
	q := m.proj.ToXY(p)
	for radius := m.cfg.MaxLagM / 4; radius <= m.cfg.MaxLagM*4; radius *= 2 {
		var cands []cand
		m.grid.WithinRadius(p, radius, func(id int) bool {
			cands = append(cands, cand{id: id, d: m.xs[id].DistanceM(q)})
			return true
		})
		if len(cands) >= k {
			sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
			ids := make([]int, k)
			for i := 0; i < k; i++ {
				ids[i] = cands[i].id
			}
			return ids
		}
	}
	return nil
}

// solve performs Gaussian elimination with partial pivoting on the
// augmented matrix a (n rows, n+1 columns), returning the solution.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = a[i][n] / a[i][i]
	}
	return x, nil
}
