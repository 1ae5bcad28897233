// Package vscope reimplements the two modules of V-Scope (Zhang et al.,
// MobiCom'14) that the paper implements for its comparison (§4.4):
// measurement clustering and per-cluster propagation-model fitting.
// V-Scope improves on generic spectrum databases by learning log-distance
// path-loss parameters from locally collected measurements, then
// predicting white-space availability from location alone — which is
// precisely why Waldo beats it: a fitted distance law still cannot express
// terrain pockets or any non-radial coverage structure.
package vscope

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml/kmeans"
	"github.com/wsdetect/waldo/internal/rfenv"
)

// Fitted path-loss exponents are clamped to a physical range: fits on
// noisy fringe data can otherwise go negative or explode.
const (
	minExponent = 1.5
	maxExponent = 6.0
)

// Config parameterizes training.
type Config struct {
	// Transmitters is the incumbent registry (V-Scope, like any
	// measurement-augmented database, starts from the public database).
	Transmitters []rfenv.Transmitter
	// ClusterK is the number of measurement clusters; default 3.
	ClusterK int
	// ThresholdDBm is the protected-contour level; 0 means −84.
	ThresholdDBm float64
	// Seed drives clustering.
	Seed int64
}

// clusterFit is one cluster's fitted log-distance model for one channel:
// RSS(d) = A − 10·n·log10(d/km).
type clusterFit struct {
	a float64 // intercept at 1 km, dBm
	n float64 // path-loss exponent
	// contourM is the fitted decodability radius for the dominant
	// transmitter, precomputed for queries.
	contourM float64
}

type channelModel struct {
	tx       rfenv.Transmitter // dominant (strongest-at-centroid) station
	centers  [][]float64
	clusters []clusterFit
}

// Model is a trained V-Scope instance covering one campaign area.
type Model struct {
	proj   *geo.Projector
	models map[rfenv.Channel]*channelModel
}

// Train fits per-cluster propagation models from the readings of each
// channel. readings maps channel → that channel's readings (one sensor).
func Train(readings map[rfenv.Channel][]dataset.Reading, cfg Config) (*Model, error) {
	if len(readings) == 0 {
		return nil, fmt.Errorf("vscope: no readings")
	}
	if len(cfg.Transmitters) == 0 {
		return nil, fmt.Errorf("vscope: no transmitter registry")
	}
	if cfg.ClusterK == 0 {
		cfg.ClusterK = 3
	}
	if cfg.ClusterK < 1 {
		return nil, fmt.Errorf("vscope: bad cluster count %d", cfg.ClusterK)
	}
	if cfg.ThresholdDBm == 0 {
		cfg.ThresholdDBm = -84
	}

	var origin geo.Point
	for _, rs := range readings {
		if len(rs) == 0 {
			return nil, fmt.Errorf("vscope: empty channel set")
		}
		origin = rs[0].Loc
		break
	}
	m := &Model{
		proj:   geo.NewProjector(origin),
		models: make(map[rfenv.Channel]*channelModel),
	}

	for ch, rs := range readings {
		tx, err := dominantTransmitter(cfg.Transmitters, ch, rs)
		if err != nil {
			return nil, fmt.Errorf("vscope: %v: %w", ch, err)
		}
		locs := make([][]float64, len(rs))
		for i := range rs {
			xy := m.proj.ToXY(rs[i].Loc)
			locs[i] = []float64{xy.X / 1000, xy.Y / 1000}
		}
		k := cfg.ClusterK
		if k > len(rs) {
			k = len(rs)
		}
		clu, err := kmeans.Run(locs, kmeans.Config{K: k, Seed: cfg.Seed + int64(ch)})
		if err != nil {
			return nil, fmt.Errorf("vscope: %v: %w", ch, err)
		}
		cm := &channelModel{tx: tx, centers: clu.Centers, clusters: make([]clusterFit, k)}
		for c := 0; c < k; c++ {
			var dists, rsses []float64
			for i := range rs {
				if clu.Assignments[i] != c {
					continue
				}
				dKM := tx.Loc.DistanceM(rs[i].Loc) / 1000
				if dKM < 0.05 {
					dKM = 0.05
				}
				dists = append(dists, math.Log10(dKM))
				rsses = append(rsses, rs[i].Signal.RSSdBm)
			}
			fit, err := fitLogDistance(dists, rsses, cfg.ThresholdDBm)
			if err != nil {
				return nil, fmt.Errorf("vscope: %v cluster %d: %w", ch, c, err)
			}
			cm.clusters[c] = fit
		}
		m.models[ch] = cm
	}
	return m, nil
}

// dominantTransmitter picks the station with the strongest mean signal
// implied by the readings: in practice the closest one on the channel.
func dominantTransmitter(txs []rfenv.Transmitter, ch rfenv.Channel, rs []dataset.Reading) (rfenv.Transmitter, error) {
	centroid := rs[len(rs)/2].Loc
	best := -1
	bestD := math.Inf(1)
	for i, tx := range txs {
		if tx.Channel != ch {
			continue
		}
		if d := tx.Loc.DistanceM(centroid); d < bestD {
			bestD = d
			best = i
		}
	}
	if best < 0 {
		return rfenv.Transmitter{}, fmt.Errorf("no transmitter on channel")
	}
	return txs[best], nil
}

// fitLogDistance least-squares fits RSS = a − 10·n·log10(d) and derives
// the decodability contour radius.
func fitLogDistance(logD, rss []float64, thresholdDBm float64) (clusterFit, error) {
	if len(logD) < 2 {
		// Too few points to fit: fall back to a generic urban exponent
		// anchored at the sample mean.
		n := 3.5
		a := thresholdDBm
		if len(rss) == 1 {
			a = rss[0] + 10*n*logD[0]
		}
		return newFit(a, n, thresholdDBm), nil
	}
	var sx, sy, sxx, sxy float64
	nPts := float64(len(logD))
	for i := range logD {
		sx += logD[i]
		sy += rss[i]
		sxx += logD[i] * logD[i]
		sxy += logD[i] * rss[i]
	}
	den := nPts*sxx - sx*sx
	var slope, a float64
	if math.Abs(den) < 1e-9 {
		// All readings at one distance ring: anchor a generic exponent.
		slope = -35
		a = sy/nPts - slope*(sx/nPts)
	} else {
		slope = (nPts*sxy - sx*sy) / den
		a = (sy - slope*sx) / nPts
	}
	n := -slope / 10
	if n < minExponent {
		n = minExponent
	}
	if n > maxExponent {
		n = maxExponent
	}
	return newFit(a, n, thresholdDBm), nil
}

func newFit(a, n, thresholdDBm float64) clusterFit {
	// Contour: a − 10·n·log10(d_km) = threshold ⇒ d = 10^((a−threshold)/(10n)).
	d := math.Pow(10, (a-thresholdDBm)/(10*n)) * 1000
	if d > 1.5e6 {
		d = 1.5e6
	}
	return clusterFit{a: a, n: n, contourM: d}
}

// PredictRSS returns the fitted field estimate at p (used for diagnostics
// and the error analysis of §4.4).
func (m *Model) PredictRSS(ch rfenv.Channel, p geo.Point) (float64, error) {
	cm, ok := m.models[ch]
	if !ok {
		return 0, fmt.Errorf("vscope: no model for %v", ch)
	}
	fit := cm.clusterAt(m.proj, p)
	dKM := cm.tx.Loc.DistanceM(p) / 1000
	if dKM < 0.05 {
		dKM = 0.05
	}
	return fit.a - 10*fit.n*math.Log10(dKM), nil
}

// Available reports V-Scope's white-space answer: outside the fitted
// contour plus the protection radius of the dominant station.
func (m *Model) Available(ch rfenv.Channel, p geo.Point) (bool, error) {
	cm, ok := m.models[ch]
	if !ok {
		return false, fmt.Errorf("vscope: no model for %v", ch)
	}
	fit := cm.clusterAt(m.proj, p)
	return cm.tx.Loc.DistanceM(p) > fit.contourM+core.ProtectRadiusM, nil
}

// clusterAt picks the fitted cluster covering p.
func (cm *channelModel) clusterAt(proj *geo.Projector, p geo.Point) clusterFit {
	xy := proj.ToXY(p)
	idx, _ := kmeans.Nearest(cm.centers, []float64{xy.X / 1000, xy.Y / 1000})
	return cm.clusters[idx]
}
