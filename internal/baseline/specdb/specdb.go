// Package specdb implements a conventional propagation-model spectrum
// database — the FCC-certified approach (Google Spectrum Database,
// SpectrumBridge) Waldo is compared against in Fig. 4 and §4.4. The
// database knows transmitter locations and powers, applies a generic
// propagation model (R-6602-style curves), computes each station's
// protected contour, and denies white-space use anywhere within contour
// plus the portable-device separation distance. It has no knowledge of
// local terrain, so it cannot see the pockets of Figure 1 — which is
// exactly its over-protection failure mode.
package specdb

import (
	"fmt"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
)

// Database is a protected-contour white-space database.
type Database struct {
	// contour radius (m) per transmitter index, per channel
	radii map[rfenv.Channel][]contour
}

type contour struct {
	tx      rfenv.Transmitter
	radiusM float64
}

// Config assembles a database.
type Config struct {
	// Transmitters is the incumbent registry; required.
	Transmitters []rfenv.Transmitter
	// Model is the generic propagation model; nil means the
	// conservative FCC-curve-style model.
	Model rfenv.PathLossModel
	// RxHeightM is the receiver height the contour is evaluated at;
	// 0 means 2 m (the measurement height; set 10 for the regulatory
	// assumption, which inflates contours further).
	RxHeightM float64
}

// New precomputes protected contours for every transmitter.
func New(cfg Config) (*Database, error) {
	if len(cfg.Transmitters) == 0 {
		return nil, fmt.Errorf("specdb: no transmitters registered")
	}
	model := cfg.Model
	if model == nil {
		model = rfenv.FCCCurves{}
	}
	rx := cfg.RxHeightM
	if rx == 0 {
		rx = 2
	}

	db := &Database{radii: make(map[rfenv.Channel][]contour)}
	for _, tx := range cfg.Transmitters {
		f, err := tx.Channel.CenterFreqMHz()
		if err != nil {
			return nil, fmt.Errorf("specdb: %s: %w", tx.Callsign, err)
		}
		r, err := contourRadiusM(model, tx, f, rx)
		if err != nil {
			return nil, fmt.Errorf("specdb: %s: %w", tx.Callsign, err)
		}
		db.radii[tx.Channel] = append(db.radii[tx.Channel], contour{tx: tx, radiusM: r})
	}
	return db, nil
}

// contourRadiusM bisects for the distance where the predicted field drops
// to the threshold. Path loss is monotone in distance for every model in
// rfenv.
func contourRadiusM(m rfenv.PathLossModel, tx rfenv.Transmitter, fMHz, rxH float64) (float64, error) {
	predict := func(d float64) float64 {
		return tx.ERPdBm - m.PathLossDB(d, fMHz, tx.HeightM, rxH)
	}
	const (
		lo0 = 50.0
		hi0 = 1.5e6 // 1500 km: beyond any UHF station
	)
	if predict(hi0) >= core.ThresholdDBm {
		return hi0, nil
	}
	if predict(lo0) < core.ThresholdDBm {
		return 0, nil
	}
	lo, hi := lo0, hi0
	for i := 0; i < 80 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if predict(mid) >= core.ThresholdDBm {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Available reports the database's answer to a white-space query: may a
// portable device transmit on ch at p?
func (db *Database) Available(ch rfenv.Channel, p geo.Point) bool {
	for _, c := range db.radii[ch] {
		if c.tx.Loc.DistanceM(p) <= c.radiusM+core.ProtectRadiusM {
			return false
		}
	}
	return true
}

// Channels returns the channels with registered incumbents.
func (db *Database) Channels() []rfenv.Channel {
	out := make([]rfenv.Channel, 0, len(db.radii))
	for ch := range db.radii {
		out = append(out, ch)
	}
	sortChannels(out)
	return out
}

func sortChannels(chs []rfenv.Channel) {
	for i := 1; i < len(chs); i++ {
		for j := i; j > 0 && chs[j] < chs[j-1]; j-- {
			chs[j], chs[j-1] = chs[j-1], chs[j]
		}
	}
}
