package rfenv

import (
	"fmt"
	"math"
	"sort"

	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/iq"
)

// Transmitter is a licensed TV station (a spectrum incumbent).
type Transmitter struct {
	// Callsign identifies the station in reports.
	Callsign string
	// Loc is the tower location.
	Loc geo.Point
	// Channel is the licensed channel.
	Channel Channel
	// ERPdBm is the effective radiated power in dBm.
	ERPdBm float64
	// HeightM is the antenna height above average terrain.
	HeightM float64
}

// Environment is the composite ground-truth RF field: transmitters seen
// through a median propagation model, correlated shadowing, and terrain
// obstructions. It answers "what is the true received TV signal power at
// this point on this channel", which is the quantity every sensor then
// observes through its own imperfect front end.
type Environment struct {
	// Area is the region of interest (the paper's 700 km² metro area).
	Area geo.BBox
	// RxHeightM is the receiver antenna height the field is evaluated at
	// (the paper's war-driving antennas sit at ~2 m).
	RxHeightM float64

	model        PathLossModel
	txs          []Transmitter
	txByChannel  map[Channel][]Transmitter
	shadows      map[Channel]*ShadowField
	shadowCfg    shadowConfig
	obstructions []Obstruction
	channels     []Channel
}

// envConfig assembles an Environment.
type envConfig struct {
	// Area is the region of interest; required.
	Area geo.BBox
	// Transmitters registers the incumbents; required (may be empty only
	// for tests).
	Transmitters []Transmitter
	// Model is the ground-truth median propagation model; nil means
	// HataUrban{LargeCity: true}.
	Model PathLossModel
	// Shadow configures the per-channel shadowing fields. Seed is
	// combined with the channel number so each channel gets an
	// independent realization.
	Shadow shadowConfig
	// Obstructions lists terrain features.
	Obstructions []Obstruction
	// RxHeightM defaults to 2 m.
	RxHeightM float64
}

// newEnvironment validates cfg and builds the environment.
func newEnvironment(cfg envConfig) (*Environment, error) {
	if cfg.Area.MinLat >= cfg.Area.MaxLat || cfg.Area.MinLon >= cfg.Area.MaxLon {
		return nil, fmt.Errorf("rfenv: degenerate area %+v", cfg.Area)
	}
	model := cfg.Model
	if model == nil {
		model = HataUrban{LargeCity: true}
	}
	rx := cfg.RxHeightM
	if rx == 0 {
		rx = 2
	}

	env := &Environment{
		Area:         cfg.Area,
		RxHeightM:    rx,
		model:        model,
		txs:          append([]Transmitter(nil), cfg.Transmitters...),
		txByChannel:  make(map[Channel][]Transmitter),
		shadows:      make(map[Channel]*ShadowField),
		shadowCfg:    cfg.Shadow,
		obstructions: append([]Obstruction(nil), cfg.Obstructions...),
	}
	center := cfg.Area.Center()
	seen := make(map[Channel]bool)
	for _, tx := range env.txs {
		if !tx.Channel.Valid() {
			return nil, fmt.Errorf("rfenv: transmitter %s on invalid channel %d", tx.Callsign, tx.Channel)
		}
		env.txByChannel[tx.Channel] = append(env.txByChannel[tx.Channel], tx)
		if !seen[tx.Channel] {
			seen[tx.Channel] = true
			env.channels = append(env.channels, tx.Channel)
			sc := cfg.Shadow
			sc.Seed = cfg.Shadow.Seed*1000003 + uint64(tx.Channel)
			env.shadows[tx.Channel] = newShadowField(center, sc)
		}
	}
	sort.Slice(env.channels, func(i, j int) bool { return env.channels[i] < env.channels[j] })
	return env, nil
}

// Channels returns the channels with at least one registered transmitter,
// in ascending order.
func (e *Environment) Channels() []Channel {
	return append([]Channel(nil), e.channels...)
}

// Transmitters returns all registered transmitters.
func (e *Environment) Transmitters() []Transmitter {
	return append([]Transmitter(nil), e.txs...)
}

// RSSDBm returns the true received TV signal power (dBm) on channel ch at
// point p and the environment's receiver height: the power sum over all
// co-channel transmitters of ERP − pathloss − shadowing − obstruction.
// Returns -inf if no transmitter operates on ch.
func (e *Environment) RSSDBm(ch Channel, p geo.Point) float64 {
	return e.RSSDBmAtHeight(ch, p, e.RxHeightM)
}

// RSSDBmAtHeight evaluates the field with an explicit receiver antenna
// height (meters) — the §6 altitude-reporting extension: a WSD on the
// tenth floor of a building sees a stronger field than one at street
// level, and its uploads should say so.
func (e *Environment) RSSDBmAtHeight(ch Channel, p geo.Point, hRxM float64) float64 {
	txs := e.txByChannel[ch]
	if len(txs) == 0 {
		return math.Inf(-1)
	}
	fMHz, err := ch.CenterFreqMHz()
	if err != nil {
		return math.Inf(-1)
	}
	shadow := 0.0
	if sf := e.shadows[ch]; sf != nil {
		shadow = sf.AtPoint(p)
	}
	var obst float64
	for i := range e.obstructions {
		obst += e.obstructions[i].AttenuationDB(ch, p)
	}

	var totalMW float64
	for _, tx := range txs {
		d := tx.Loc.DistanceM(p)
		pl := e.model.PathLossDB(d, fMHz, tx.HeightM, hRxM)
		totalMW += iq.DBmToMW(tx.ERPdBm - pl - shadow - obst)
	}
	return iq.MWToDBm(totalMW)
}

// StrongestDBm returns the strongest true received power across all
// channels except skip at point p. Low-cost front ends leak a fraction of
// this into every measured channel (limited dynamic range), which the
// sensor layer models.
func (e *Environment) StrongestDBm(p geo.Point, skip Channel) float64 {
	strongest := math.Inf(-1)
	for _, ch := range e.channels {
		if ch == skip {
			continue
		}
		if v := e.RSSDBm(ch, p); v > strongest {
			strongest = v
		}
	}
	return strongest
}

// TemporalVariant derives the environment as it looks some months later:
// same incumbents, terrain and median propagation, but shadowing that is
// only rho-correlated with today's (foliage, construction, weather —
// §3.4's "changes in the environment that affect signal propagation", and
// the reason the paper collected two measurement sets months apart). seed
// selects the fresh component's realization.
func (e *Environment) TemporalVariant(seed uint64, rho float64) (*Environment, error) {
	out := &Environment{
		Area:         e.Area,
		RxHeightM:    e.RxHeightM,
		model:        e.model,
		txs:          append([]Transmitter(nil), e.txs...),
		txByChannel:  make(map[Channel][]Transmitter, len(e.txByChannel)),
		shadows:      make(map[Channel]*ShadowField, len(e.shadows)),
		shadowCfg:    e.shadowCfg,
		obstructions: append([]Obstruction(nil), e.obstructions...),
		channels:     append([]Channel(nil), e.channels...),
	}
	for ch, txs := range e.txByChannel {
		out.txByChannel[ch] = txs
	}
	center := e.Area.Center()
	for ch, base := range e.shadows {
		sc := e.shadowCfg
		sc.Seed = seed*1000003 + uint64(ch)
		fresh := newShadowField(center, sc)
		blended, err := NewBlendedShadowField(base, fresh, rho)
		if err != nil {
			return nil, err
		}
		out.shadows[ch] = blended
	}
	return out, nil
}
