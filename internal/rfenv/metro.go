package rfenv

import (
	"fmt"
	"math"

	"github.com/wsdetect/waldo/internal/geo"
)

// MetroCenter anchors the synthetic metro area at downtown Atlanta, where
// the paper's war-driving campaign took place.
var MetroCenter = geo.Point{Lat: 33.749, Lon: -84.388}

// MetroAreaKM2 is the campaign coverage area (paper §2.1: "a total area of
// around 700 km²").
const MetroAreaKM2 = 700.0

// ERPFor solves for the effective radiated power that produces the target
// median received power at the given link distance under model m, so metro
// construction can be specified in terms of in-area signal levels rather
// than opaque power numbers.
func ERPFor(m PathLossModel, ch Channel, distKM, hTxM, hRxM, targetDBm float64) (float64, error) {
	fMHz, err := ch.CenterFreqMHz()
	if err != nil {
		return 0, err
	}
	return targetDBm + m.PathLossDB(distKM*1000, fMHz, hTxM, hRxM), nil
}

// BuildMetro constructs the default 700 km² synthetic metro environment
// whose channel occupancy structure mirrors the paper's campaign:
//
//   - ch 27, 39 — strong in-town towers, decodable everywhere (the two
//     channels §2.1 excludes from system evaluation as fully occupied);
//   - ch 47, 30 — mostly occupied; ch 47 has a sharp coverage boundary and
//     an in-coverage obstruction pocket (the Fig. 1 / Fig. 6 scenario);
//   - ch 22 — near-threshold, roughly half occupied (two medium stations);
//   - ch 15, 46 — fringe coverage, mostly white space with patches;
//   - ch 17 — deep fringe with heavy terrain obstructions: the channel on
//     which location-only models fail hardest (Fig. 12a / Fig. 16);
//   - ch 21 — very weak signals hovering near the RTL-SDR noise floor, the
//     anomalous channel of Fig. 7.
//
// Channels 15/17/22/47 get nearby one-sided transmitters (strong in-area
// gradient) so white space survives on their far sides even after the
// +7.5 dB antenna correction, while 21/30/46 get distant flat-field
// transmitters that the correction floods completely — reproducing the
// Fig. 15 note that channels 21, 30 and 46 become all-not-safe.
func BuildMetro(seed uint64) (*Environment, error) {
	side := math.Sqrt(MetroAreaKM2) * 1000
	area := geo.NewBBoxAround(MetroCenter, side)
	c := MetroCenter
	model := HataUrban{LargeCity: true}

	type station struct {
		call    string
		ch      Channel
		bearing float64 // from metro center to the tower
		distKM  float64
		target  float64 // median RSS at metro center, dBm
		height  float64
	}
	// Partial channels get towers at or just inside the area edge: the
	// 6 km protection dilation of Algorithm 1 turns any scattered
	// decodable patches into blanket not-safe labels, so surviving white
	// space requires a one-sided gradient (coverage on the tower side,
	// deep fringe on the far side) — which is also how real metro areas
	// look. Channels 15/17/22/47 use close towers (steep gradient: deeply
	// dead far sides that survive the +7.5 dB antenna correction), while
	// 21/30/46 use medium-distance towers whose corrected contours grow
	// past the whole area — reproducing the Fig. 15 note that those three
	// channels become all-not-safe under the correction.
	stations := []station{
		{"WMTR-15", 15, 90, 10, -92, 250},
		{"WFRN-17", 17, 315, 10, -92, 200},
		{"WDST-21", 21, 200, 35, -91.5, 300},
		{"WPRE-22A", 22, 80, 12, -93, 250},
		{"WPRE-22B", 22, 190, 12, -93, 250},
		{"WATL-27", 27, 10, 25, -56, 300},
		{"WMID-30", 30, 250, 25, -86.5, 300},
		{"WCTR-39", 39, 140, 25, -58, 300},
		{"WFAR-46", 46, 290, 30, -87.5, 300},
		{"WNEB-47", 47, 45, 9, -88, 280},
	}

	txs := make([]Transmitter, 0, len(stations))
	for _, s := range stations {
		erp, err := ERPFor(model, s.ch, s.distKM, s.height, 2, s.target)
		if err != nil {
			return nil, fmt.Errorf("rfenv: station %s: %w", s.call, err)
		}
		txs = append(txs, Transmitter{
			Callsign: s.call,
			Loc:      c.Offset(s.bearing, s.distKM*1000),
			Channel:  s.ch,
			ERPdBm:   erp,
			HeightM:  s.height,
		})
	}

	obstructions := []Obstruction{
		// Terrain common to all channels.
		{Center: c.Offset(270, 7000), RadiusM: 2500, EdgeM: 1500, DepthDB: 14},
		{Center: c.Offset(135, 9000), RadiusM: 3000, EdgeM: 2000, DepthDB: 12},
		{Center: c.Offset(0, 4000), RadiusM: 1500, EdgeM: 1000, DepthDB: 10},
		// Heavy terrain on channel 17's propagation path: deep, wide
		// pockets that defeat location-only and fitted-propagation
		// models.
		{Center: c.Offset(315, 8000), RadiusM: 4000, EdgeM: 2500, DepthDB: 20, Channels: []Channel{17}},
		{Center: c.Offset(180, 11000), RadiusM: 3000, EdgeM: 2000, DepthDB: 16, Channels: []Channel{17}},
		// The Fig. 1 pocket: an obstruction inside channel 47's coverage
		// whose interior cannot decode the signal but is still within the
		// 6 km protection radius of decodable surroundings.
		{Center: c.Offset(45, 5000), RadiusM: 2000, EdgeM: 1200, DepthDB: 18, Channels: []Channel{47}},
	}

	return newEnvironment(envConfig{
		Area:         area,
		Transmitters: txs,
		Model:        model,
		Shadow: shadowConfig{
			Seed:           seed,
			SigmaDB:        4,
			DecorrelationM: 120,
			CoarseScaleM:   6000,
			CoarseWeight:   0.55,
		},
		Obstructions: obstructions,
		RxHeightM:    2,
	})
}
