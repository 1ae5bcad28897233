package rfenv

import (
	"math"
	"testing"
)

func TestChannelFrequencies(t *testing.T) {
	tests := []struct {
		ch         Channel
		wantCenter float64
	}{
		{14, 473},
		{15, 479},
		{27, 551},
		{39, 623},
		{47, 671},
		{51, 695},
	}
	for _, tt := range tests {
		got, err := tt.ch.CenterFreqMHz()
		if err != nil {
			t.Fatalf("%v: %v", tt.ch, err)
		}
		if got != tt.wantCenter {
			t.Errorf("%v center = %v, want %v", tt.ch, got, tt.wantCenter)
		}
	}
}

func TestChannelValidity(t *testing.T) {
	for _, ch := range []Channel{13, 52, 0, -1} {
		if ch.Valid() {
			t.Errorf("channel %d should be invalid", ch)
		}
		if _, err := ch.CenterFreqMHz(); err == nil {
			t.Errorf("channel %d frequency lookup should fail", ch)
		}
	}
	for _, ch := range MeasuredChannels {
		if !ch.Valid() {
			t.Errorf("measured channel %v invalid", ch)
		}
	}
}

func TestChannelSetsMatchPaper(t *testing.T) {
	if len(MeasuredChannels) != 9 {
		t.Errorf("measured channels = %d, want 9", len(MeasuredChannels))
	}
	if len(EvalChannels) != 7 {
		t.Errorf("eval channels = %d, want 7", len(EvalChannels))
	}
	// Eval = measured minus the fully occupied 27 and 39.
	evalSet := make(map[Channel]bool)
	for _, ch := range EvalChannels {
		evalSet[ch] = true
	}
	if evalSet[27] || evalSet[39] {
		t.Error("channels 27 and 39 must be excluded from evaluation")
	}
	for _, ch := range EvalChannels {
		found := false
		for _, m := range MeasuredChannels {
			if m == ch {
				found = true
			}
		}
		if !found {
			t.Errorf("eval channel %v not in measured set", ch)
		}
	}
}

func TestHataUrbanPathLoss(t *testing.T) {
	h := HataUrban{LargeCity: true}
	// Loss must increase with distance and frequency.
	l10 := h.PathLossDB(10000, 600, 300, 2)
	l20 := h.PathLossDB(20000, 600, 300, 2)
	if l20 <= l10 {
		t.Errorf("loss should grow with distance: %v vs %v", l10, l20)
	}
	// Slope per decade for hb=300: 44.9 − 6.55·log10(300) ≈ 28.7 dB.
	l100 := h.PathLossDB(100000, 600, 300, 2)
	slope := l100 - l10
	if math.Abs(slope-28.67) > 0.1 {
		t.Errorf("slope per decade = %v, want ≈28.67", slope)
	}
	lf := h.PathLossDB(10000, 700, 300, 2)
	if lf <= l10 {
		t.Errorf("loss should grow with frequency: %v vs %v", l10, lf)
	}
	// Taller mobile antenna reduces loss.
	lTall := h.PathLossDB(10000, 600, 300, 10)
	if lTall >= l10 {
		t.Errorf("taller receiver should reduce loss: %v vs %v", lTall, l10)
	}
}

func TestAntennaCorrectionMatchesPaper(t *testing.T) {
	// Paper §2.1: a(h_m) for the 8 m height gap yields ≈7.5 dB.
	got := AntennaHeightGapCorrectionDB()
	if got < 7.0 || got > 8.0 {
		t.Errorf("antenna correction = %v dB, paper reports ≈7.5", got)
	}
	if MobileAntennaCorrectionDB(0) != 0 || MobileAntennaCorrectionDB(-3) != 0 {
		t.Error("non-positive heights should yield zero correction")
	}
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// FSPL at 1 km, 600 MHz: 20·0 + 20·log10(600) + 32.44 ≈ 88.0 dB.
	got := FreeSpace{}.PathLossDB(1000, 600, 0, 0)
	if math.Abs(got-87.99) > 0.05 {
		t.Errorf("FSPL = %v, want ≈87.99", got)
	}
}

func TestFCCCurvesOptimism(t *testing.T) {
	base := HataUrban{LargeCity: true}
	fcc := FCCCurves{}
	for _, d := range []float64{5000, 20000, 80000} {
		b := base.PathLossDB(d, 600, 300, 2)
		f := fcc.PathLossDB(d, 600, 300, 2)
		if f >= b {
			t.Errorf("FCC-style model must predict less loss: %v vs %v at %v m", f, b, d)
		}
	}
}
