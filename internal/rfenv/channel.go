// Package rfenv models the metro-scale TV-band RF environment that stands
// in for the paper's Atlanta measurement campaign: UHF channel geometry,
// empirical propagation models (Hata urban, free space, and a conservative
// FCC-curve-style model), spatially correlated log-normal shadowing
// (Gudmundson), terrain obstructions that carve white-space "pockets", and
// a transmitter registry combined into a queryable ground-truth field.
//
// The field produced here is the physical truth every sensor observes
// through its own front end; the labeling ground truth used in evaluation
// is, as in the paper, the spectrum analyzer's view of this field.
package rfenv

import "fmt"

// Channel is a US TV channel number. Waldo's campaign covers nine UHF
// channels (paper §2.1).
type Channel int

// Channel sets used throughout the reproduction, matching the paper:
// nine channels measured; channels 27 and 39 were fully occupied everywhere
// and are excluded from the system evaluation (§2.1), leaving seven.
var (
	MeasuredChannels = []Channel{15, 17, 21, 22, 27, 30, 39, 46, 47}
	EvalChannels     = []Channel{15, 17, 21, 22, 30, 46, 47}
)

// Valid reports whether c is a post-2009 US UHF TV channel (14–51).
func (c Channel) Valid() bool { return c >= 14 && c <= 51 }

// CenterFreqMHz returns the channel center frequency. US UHF channels are
// 6 MHz wide starting at 470 MHz for channel 14.
func (c Channel) CenterFreqMHz() (float64, error) {
	if !c.Valid() {
		return 0, fmt.Errorf("rfenv: channel %d outside UHF TV band (14-51)", c)
	}
	return 470 + float64(c-14)*6 + 3, nil
}

// String implements fmt.Stringer.
func (c Channel) String() string { return fmt.Sprintf("ch%d", int(c)) }
