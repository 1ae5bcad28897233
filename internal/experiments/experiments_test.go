package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// sharedSuite keeps one small campaign for the whole test binary: building
// it dominates test time otherwise.
var (
	sharedOnce  sync.Once
	sharedSuite *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite tests need the campaign")
	}
	sharedOnce.Do(func() {
		sharedSuite = NewSuite(Config{Seed: 42, Samples: 1400})
	})
	return sharedSuite
}

// shared is one experiment's result on the shared suite, run once for
// the shape tests and TestGoldenHeldOutCounts that read it.
type shared[T any] struct {
	once sync.Once
	res  T
	err  error
}

func (m *shared[T]) get(t *testing.T, run func(*Suite) (T, error)) T {
	t.Helper()
	s := testSuite(t)
	m.once.Do(func() { m.res, m.err = run(s) })
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.res
}

var (
	table1Run   shared[*Table1Result]
	fig14Run    shared[*Fig14Result]
	temporalRun shared[*TemporalResult]
)

func TestSuiteConfigDefaults(t *testing.T) {
	s := NewSuite(Config{})
	if s.Config().Samples != 5282 {
		t.Errorf("default samples = %d, want the paper's 5282", s.Config().Samples)
	}
	if s.Config().Seed == 0 {
		t.Error("default seed must be non-zero")
	}
}

func TestAntennaCorrectionValue(t *testing.T) {
	if c := AntennaCorrectionDB(); c < 7 || c > 8 {
		t.Errorf("correction = %v, paper reports ≈7.5", c)
	}
}

func TestSec22Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Sec22SafetyEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 { // 9 channels × 2 sensors
		t.Fatalf("rows = %d, want 18", len(res.Rows))
	}
	rtl := res.Overall[sensor.KindRTLSDR]
	usrp := res.Overall[sensor.KindUSRPB200]
	// The paper's headline orderings.
	if rtl.FNRate() <= usrp.FNRate() {
		t.Errorf("RTL misdetection (%.3f) must exceed USRP (%.3f)", rtl.FNRate(), usrp.FNRate())
	}
	if rtl.FPRate() > usrp.FPRate()+0.01 {
		t.Errorf("RTL false alarms (%.3f) should not exceed USRP (%.3f)", rtl.FPRate(), usrp.FPRate())
	}
	if !strings.Contains(res.Render(), "OVERALL") {
		t.Error("render must include the overall rows")
	}
}

func TestFig4Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
	// The database over-protects: mean FN well above its FP.
	if res.MeanFNPlain < 0.05 {
		t.Errorf("mean FN = %v, expected substantial over-protection", res.MeanFNPlain)
	}
	if res.MeanFNPlain <= res.MeanFPPlain {
		t.Errorf("over-protection must dominate: FN %.3f vs FP %.3f", res.MeanFNPlain, res.MeanFPPlain)
	}
	// Correction shrinks detected white space, so FN drops.
	if res.MeanFNCorrected >= res.MeanFNPlain {
		t.Errorf("corrected FN (%.3f) should drop below plain FN (%.3f)", res.MeanFNCorrected, res.MeanFNPlain)
	}
	// Fully occupied channels have no white space to miss.
	for _, row := range res.Rows {
		if (row.Channel == 27 || row.Channel == 39) && row.FNPlain != 0 {
			t.Errorf("%v FN = %v, want 0", row.Channel, row.FNPlain)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig5SensorSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sensors) != 2 {
		t.Fatalf("sensors = %d", len(res.Sensors))
	}
	for _, fs := range res.Sensors {
		if fs.DetectableFloorDBm > -90 {
			t.Errorf("%v detectable floor %v, too insensitive", fs.Kind, fs.DetectableFloorDBm)
		}
		// KS must decrease toward the floor (weaker levels less
		// distinguishable).
		first := fs.Levels[0].KSFromNoSignal
		if first < 0.9 {
			t.Errorf("%v strongest level KS = %v, want ≈1", fs.Kind, first)
		}
	}
	// USRP reaches deeper than the RTL.
	var rtl, usrp float64
	for _, fs := range res.Sensors {
		switch fs.Kind {
		case sensor.KindRTLSDR:
			rtl = fs.DetectableFloorDBm
		case sensor.KindUSRPB200:
			usrp = fs.DetectableFloorDBm
		}
	}
	if usrp >= rtl {
		t.Errorf("USRP floor (%v) should be below RTL floor (%v)", usrp, rtl)
	}
}

func TestFig6Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig6DetectionTraces(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 300 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, k := range []sensor.Kind{sensor.KindRTLSDR, sensor.KindUSRPB200} {
		if res.Agreement[k] < 0.6 {
			t.Errorf("%v label agreement = %v, want correlated traces", k, res.Agreement[k])
		}
		if res.RSSCorrelation[k] < 0.7 {
			t.Errorf("%v RSS correlation = %v, want high (Fig. 6b)", k, res.RSSCorrelation[k])
		}
	}
}

func TestFig7Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig7LabelCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Median < 0.5 {
		t.Errorf("median correlation = %v, want high", res.Median)
	}
	if math.IsNaN(res.Median) {
		t.Error("median is NaN")
	}
}

func TestFig10Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig10and11FeatureBoxplots()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 channels × 2 sensors
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, box := range row.Boxes {
			// Not-safe medians sit above safe medians for every feature
			// (signal presence shifts all three).
			if box.NotSafe.Median <= box.Safe.Median {
				t.Errorf("%v/%v %s: not-safe median %.1f ≤ safe median %.1f",
					row.Channel, row.Kind, box.Feature, box.NotSafe.Median, box.Safe.Median)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig13LocalModels()
	if err != nil {
		t.Fatal(err)
	}
	// Clustering improves FP: k=3 beats k=1 at the Table-1 feature count.
	fp1, ok1 := res.Rate(sensor.KindUSRPB200, 1, features.SetLocationRSSCFT, false)
	fp3, ok3 := res.Rate(sensor.KindUSRPB200, 3, features.SetLocationRSSCFT, false)
	if !ok1 || !ok3 {
		t.Fatal("missing cells")
	}
	if fp3 > fp1+0.005 {
		t.Errorf("k=3 FP (%.4f) should improve on k=1 (%.4f)", fp3, fp1)
	}
}

func TestTable1Shape(t *testing.T) {
	res := table1Run.get(t, (*Suite).Table1VScopeComparison)
	// Waldo beats V-Scope decisively on FP (safety).
	if res.VScope.FPRate() < 2*res.WaldoUSRP.FPRate() {
		t.Errorf("V-Scope FP (%.3f) should be far worse than Waldo (%.3f)",
			res.VScope.FPRate(), res.WaldoUSRP.FPRate())
	}
	if len(res.PerChannel) != len(rfenv.EvalChannels) {
		t.Fatalf("per-channel rows = %d", len(res.PerChannel))
	}
	_, ratio := res.BestErrorRatio()
	if ratio < 2 {
		t.Errorf("best Waldo advantage = %.1fx, want multiple-fold", ratio)
	}
}

func TestFig17Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig17Convergence()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationary.Len() == 0 {
		t.Fatal("no stationary convergences")
	}
	mean := res.Stationary.Mean()
	if mean <= 0 || mean > 2 {
		t.Errorf("stationary convergence mean = %v s, want sub-second scale", mean)
	}
	if res.MobileConvergedFrac >= 0.95 {
		t.Errorf("mobile convergence fraction = %v, should degrade vs stationary", res.MobileConvergedFrac)
	}
	if res.ScanSeconds <= 0 || res.MobileScanSeconds <= 0 {
		t.Errorf("measured scans took %v s and %v s of air time", res.ScanSeconds, res.MobileScanSeconds)
	}
	if res.ScanSeconds <= 2 {
		t.Logf("9-channel scan %.2f s within the 802.22 budget (paper's 30 channels exceeded it)", res.ScanSeconds)
	}
	// The oracle's false-safe count with no early Safe stop (only the
	// NotSafe ones), on this suite's campaign (seed 42, 1 400 readings):
	// the shipped rule's may exceed it by one binomial σ at most, at each
	// speed. A change to the campaign, the models or the scorer's draws
	// moves these counts; re-measure them with that stop disabled. They
	// were last re-measured for the averaged fit, step budget S (58 and 43
	// before: one SVM seed's last iterate, where seeds 1–3 read 82/57,
	// 171/128 and 163/128).
	for _, c := range []struct {
		name                 string
		score                OracleScore
		occupied, falseSafes int
	}{{"stationary", res.Scored, 8181, 86}, {"15 m/s", res.MobileScored, 8181, 54}} {
		t.Logf("%s: false-safe %d of %d, white space found %d of %d", c.name, c.score.FalseSafe, c.score.Occupied, c.score.Found, c.score.Vacant)
		if n := c.score.Occupied + c.score.Vacant; n != res.ScoredPlaces*res.ScoredScans*len(rfenv.MeasuredChannels) {
			t.Errorf("%s: %d decisions scored, want one per place, scan and channel", c.name, n)
		}
		if c.score.Occupied != c.occupied {
			t.Fatalf("%s: the oracle calls %d decisions occupied, the golden %d: the scored places moved", c.name, c.score.Occupied, c.occupied)
		}
		p := float64(c.falseSafes) / float64(c.occupied)
		if sigma := math.Sqrt(float64(c.occupied) * p * (1 - p)); float64(c.score.FalseSafe) > float64(c.falseSafes)+sigma || c.score.Found == 0 {
			t.Errorf("%s: false-safe %d of %d occupied, more than one σ (%.1f) over %d without early Safe; white space found %d of %d",
				c.name, c.score.FalseSafe, c.score.Occupied, sigma, c.falseSafes, c.score.Found, c.score.Vacant)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Fig18CPUOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalizedPct <= 0 || res.NormalizedPct > 50 {
		t.Errorf("normalized CPU = %v%%", res.NormalizedPct)
	}
	if res.DownloadBytesNB >= res.DownloadBytesSVM {
		t.Errorf("NB descriptor (%d) must be smaller than SVM (%d)",
			res.DownloadBytesNB, res.DownloadBytesSVM)
	}
}

// TestFig18RenderShowsSubMillisecondScans: a scan of tens of
// microseconds reads as such, not as "0.0000 s → 0.000%".
func TestFig18RenderShowsSubMillisecondScans(t *testing.T) {
	r := &Fig18Result{PeakPct: dsp.NewECDF([]float64{1, 2}), ScanCPUSeconds: 33e-6, NormalizedPct: 100 * 33e-6 / 60}
	out := r.Render()
	if !strings.Contains(out, "mean scan processing: 0.033 ms → 5.5e-05% of the 60 s duty cycle") {
		t.Errorf("render lost the scan time:\n%s", out)
	}
}

// TestGridShape: the served grid's free cells, scored against the
// oracle at the paper's 5 282 readings per channel, are safe on one
// server (area-false-safe ≤ 1 %) and call some white space free; the
// three-shard grid, border-blind until stores are placed whole, stays
// below the 11.84 % the model vote it replaced read on this scorer.
func TestGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("the grid scorer needs the campaign")
	}
	res, err := NewSuite(Config{Seed: 42}).GridAvailability()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	one, three := res.Topologies[0].Total, res.Topologies[1].Total
	if one.Free == 0 || one.FalseSafeShare() > 0.01 {
		t.Errorf("one server: %d free cells, area-false-safe %.4f, want some free and ≤ 0.01", one.Free, one.FalseSafeShare())
	}
	if three.Free == 0 || three.FalseSafeShare() >= 0.1184 {
		t.Errorf("three shards: %d free cells, area-false-safe %.4f, want some free and below the vote's 0.1184", three.Free, three.FalseSafeShare())
	}
}

func TestSec5Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Sec5ModelSize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes[core.KindNB] >= res.Bytes[core.KindSVM] {
		t.Errorf("NB (%d B) must be smaller than SVM (%d B)",
			res.Bytes[core.KindNB], res.Bytes[core.KindSVM])
	}
	if res.Bytes[core.KindNB] > 4096 {
		t.Errorf("NB descriptor %d B, want ≤ 4 kB", res.Bytes[core.KindNB])
	}
}

func TestTable2Shape(t *testing.T) {
	s := testSuite(t)
	res, err := s.Table2Qualitative()
	if err != nil {
		t.Fatal(err)
	}
	if res.SensingFNRate < 0.9 {
		t.Errorf("sensing-only FN = %v, the −114 rule should forfeit nearly everything", res.SensingFNRate)
	}
	if !strings.Contains(res.Render(), "Waldo") {
		t.Error("render must include the Waldo row")
	}
}

func TestAblationLabelingMonotone(t *testing.T) {
	s := testSuite(t)
	res, err := s.AblationLabeling()
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(thr, radius float64) float64 {
		for _, row := range res.Rows {
			if row.ThresholdDBm == thr && row.ProtectRadiusM == radius {
				return row.SafeFraction
			}
		}
		t.Fatalf("missing row %v/%v", thr, radius)
		return 0
	}
	// Shrinking the radius frees spectrum; lowering the threshold costs it.
	if !(byKey(-84, 1700) >= byKey(-84, 4000) && byKey(-84, 4000) >= byKey(-84, 6000)) {
		t.Error("safe fraction must grow as the protection radius shrinks")
	}
	if byKey(-90, 6000) > byKey(-84, 6000) {
		t.Error("a lower threshold must not free spectrum")
	}
	if byKey(-114, 6000) > 0.02 {
		t.Errorf("−114 dBm rule leaves %.3f safe, want ≈0", byKey(-114, 6000))
	}
}

func TestRendersNonEmpty(t *testing.T) {
	s := testSuite(t)
	res := fig14Run.get(t, (*Suite).Fig14TrainingSize)
	if !strings.Contains(res.Render(), "Fig. 14") {
		t.Error("render header missing")
	}
	// More data should help on average (allowing small noise).
	if res.ErrorCDFAt(1.0).Mean() > res.ErrorCDFAt(0.25).Mean()+0.02 {
		t.Errorf("error at full data (%v) should not exceed error at 25%% (%v)",
			res.ErrorCDFAt(1.0).Mean(), res.ErrorCDFAt(0.25).Mean())
	}

	f15, err := s.Fig15AntennaCorrection()
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.SurvivingChannels) == 0 {
		t.Error("some channels must survive the correction")
	}
	for _, ch := range f15.SurvivingChannels {
		if ch == 21 || ch == 30 || ch == 46 {
			t.Errorf("%v should flood under the correction", ch)
		}
	}
}

func TestAblationSafetyMarginCurve(t *testing.T) {
	s := testSuite(t)
	res, err := s.AblationSafetyMargin()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// FP must be non-increasing and FN non-decreasing along the sweep.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Metrics.FPRate() > res.Rows[i-1].Metrics.FPRate()+0.003 {
			t.Errorf("FP rose at margin %v: %v -> %v", res.Rows[i].Margin,
				res.Rows[i-1].Metrics.FPRate(), res.Rows[i].Metrics.FPRate())
		}
		if res.Rows[i].Metrics.FNRate() < res.Rows[i-1].Metrics.FNRate()-0.003 {
			t.Errorf("FN fell at margin %v", res.Rows[i].Margin)
		}
	}
}

func TestAblationTemporalDrift(t *testing.T) {
	res := temporalRun.get(t, (*Suite).AblationTemporalDrift)
	if len(res.Rows) != len(rfenv.EvalChannels) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The refreshed model must not be worse overall than the stale one.
	if res.UpdatedTotal.ErrorRate() > res.StaleTotal.ErrorRate()+0.005 {
		t.Errorf("updated error %.4f exceeds stale %.4f",
			res.UpdatedTotal.ErrorRate(), res.StaleTotal.ErrorRate())
	}
	// Drift must actually cost the stale model something, or the
	// experiment is vacuous.
	if res.StaleTotal.ErrorRate() < 0.01 {
		t.Errorf("stale error %.4f — environment drift had no effect", res.StaleTotal.ErrorRate())
	}
}
