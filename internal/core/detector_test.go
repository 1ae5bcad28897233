package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/rfenv"
)

func noisySignal(rng *rand.Rand, rss, sigma float64) features.Signal {
	return features.Signal{
		RSSdBm: rss + rng.NormFloat64()*sigma,
		CFTdB:  rss - 11.3 + rng.NormFloat64()*sigma,
		AFTdB:  rss - 13 + rng.NormFloat64()*sigma,
	}
}

func TestDetectorConvergesStationary(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 1})
	d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	converged := false
	for i := 0; i < 200; i++ {
		if d.Offer(noisySignal(rng, -70, 0.3)) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("stationary low-noise stream did not converge in 200 readings")
	}
	loc := rfenv.MetroCenter.Offset(90, 6000) // occupied east side
	dec, err := d.Decide(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Converged {
		t.Error("decision should record convergence")
	}
	if dec.Label != dataset.LabelNotSafe {
		t.Errorf("strong signal on occupied side → %v, want not-safe", dec.Label)
	}
	if dec.CISpanDB > 0.5 {
		t.Errorf("CI span %v exceeds α", dec.CISpanDB)
	}
	if dec.ReadingsUsed < 8 {
		t.Errorf("readings used = %d", dec.ReadingsUsed)
	}
}

func TestDetectorConvergenceSpeedVsAlpha(t *testing.T) {
	// Larger α must not slow convergence (paper §5 observes the time is
	// flat for stationary devices; at minimum it is monotone).
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 3})
	readingsUntil := func(alpha float64) int {
		d, err := NewDetector(m, DetectorConfig{AlphaDB: alpha})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 1; i <= 2000; i++ {
			if d.Offer(noisySignal(rng, -90, 1.5)) {
				return i
			}
		}
		return 2000
	}
	tight := readingsUntil(0.5)
	loose := readingsUntil(5)
	if loose > tight {
		t.Errorf("α=5 took %d readings, α=0.5 took %d — should not be slower", loose, tight)
	}
}

func TestDetectorMobileFallback(t *testing.T) {
	// A mobile device sweeping across the coverage boundary sees a
	// drifting mean: the CI never settles. The decision must fall back
	// to the conservative NOR rule.
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 5})
	d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5, MaxReadings: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 64; i++ {
		// RSS drifts 30 dB across the stream: strong at first (occupied),
		// weak at the end.
		rss := -70 - float64(i)/63*30
		if d.Offer(noisySignal(rng, rss, 1)) {
			t.Fatalf("drifting stream converged at reading %d", i+1)
		}
	}
	dec, err := d.Decide(rfenv.MetroCenter.Offset(90, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Converged {
		t.Error("drifting stream must not be converged")
	}
	// The NOR rule: the high-percentile RSS says occupied, so NotSafe.
	if dec.Label != dataset.LabelNotSafe {
		t.Errorf("fallback label = %v, want not-safe", dec.Label)
	}
}

func TestDetectorResetAndLimits(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 7})
	d, err := NewDetector(m, DetectorConfig{MaxReadings: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		d.Offer(noisySignal(rng, -80, 0.2))
	}
	if d.Len() != 16 {
		t.Errorf("stream length = %d, want capped at 16", d.Len())
	}
	d.Reset()
	if d.Len() != 0 {
		t.Error("reset should clear the stream")
	}
	if _, err := d.Decide(rfenv.MetroCenter); err == nil {
		t.Error("decide with no readings must fail")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 9})
	bad := []DetectorConfig{
		{AlphaDB: -1},
		{Confidence: 1.5},
		{SmoothingWindow: -2},
		{OutlierLoPct: 90, OutlierHiPct: 10},
		{MinReadings: 1},
		{MinReadings: 100, MaxReadings: 50},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(m, cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := NewDetector(nil, DetectorConfig{}); err == nil {
		t.Error("nil model must fail")
	}
}

func TestUpdaterFlow(t *testing.T) {
	readings, _ := synthReadings(800, 10)
	u, err := NewUpdater(UpdaterConfig{
		Constructor: ConstructorConfig{Classifier: KindNB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Retrain(); err == nil {
		t.Error("retrain with no data must fail")
	}

	u.Bootstrap(readings[:600])
	m1, err := u.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == nil {
		t.Fatal("nil model")
	}
	if _, v := u.Model(); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}

	// A clean upload is accepted and increases the store.
	if err := u.Submit(UploadBatch{Readings: readings[600:700], CISpanDB: 0.4}); err != nil {
		t.Fatal(err)
	}
	if u.Size() != 700 {
		t.Errorf("store size = %d, want 700", u.Size())
	}
	// A noisy upload is rejected (α′ criterion).
	if err := u.Submit(UploadBatch{Readings: readings[700:750], CISpanDB: 3.0}); err == nil {
		t.Error("noisy upload must be rejected")
	}
	// A NaN span must not slip through the gate as "not greater than α′",
	// even when a caller skipped UploadBatch.Validate.
	if err := u.Submit(UploadBatch{Readings: readings[700:750], CISpanDB: math.NaN()}); err == nil {
		t.Error("NaN CI span must be rejected")
	}
	if u.Size() != 700 {
		t.Errorf("rejected uploads grew the store to %d", u.Size())
	}
	// Empty and mixed uploads are rejected.
	if err := u.Submit(UploadBatch{}); err == nil {
		t.Error("empty upload must be rejected")
	}
	mixed := append([]dataset.Reading(nil), readings[700:705]...)
	mixed[2].Channel = 15
	if err := u.Submit(UploadBatch{Readings: mixed, CISpanDB: 0.1}); err == nil {
		t.Error("mixed upload must be rejected")
	}

	m2, err := u.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := u.Model(); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
	if m2 == m1 {
		t.Error("retrain should produce a fresh model")
	}
}

// TestUploadBatchValidate: the one malformed-input check every upload
// format goes through.
func TestUploadBatchValidate(t *testing.T) {
	good := func() UploadBatch {
		return UploadBatch{CISpanDB: 0.4, Readings: []dataset.Reading{
			{Loc: rfenv.MetroCenter, Channel: 47, Sensor: 1, Signal: features.Signal{RSSdBm: -70, CFTdB: -81, AFTdB: -83}, AltM: 12},
			{Loc: rfenv.MetroCenter, Channel: 47, Sensor: 1, Signal: features.Signal{RSSdBm: -71, CFTdB: -82, AFTdB: -84}},
		}}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("plain upload refused: %v", err)
	}
	bad := map[string]func(b *UploadBatch){
		"no readings":       func(b *UploadBatch) { b.Readings = nil },
		"too many readings": func(b *UploadBatch) { b.Readings = make([]dataset.Reading, MaxBatchReadings+1) },
		"NaN span":          func(b *UploadBatch) { b.CISpanDB = math.NaN() },
		"negative span":     func(b *UploadBatch) { b.CISpanDB = -5 },
		"infinite span":     func(b *UploadBatch) { b.CISpanDB = math.Inf(1) },
		"NaN RSS":           func(b *UploadBatch) { b.Readings[1].Signal.RSSdBm = math.NaN() },
		"+Inf CFT":          func(b *UploadBatch) { b.Readings[1].Signal.CFTdB = math.Inf(1) },
		"-Inf AFT":          func(b *UploadBatch) { b.Readings[1].Signal.AFTdB = math.Inf(-1) },
		"negative altitude": func(b *UploadBatch) { b.Readings[1].AltM = -30 },
		"NaN altitude":      func(b *UploadBatch) { b.Readings[1].AltM = math.NaN() },
		"channel 99":        func(b *UploadBatch) { b.Readings[1].Channel = 99 },
		"sensor 0":          func(b *UploadBatch) { b.Readings[1].Sensor = 0 },
		"latitude 91":       func(b *UploadBatch) { b.Readings[1].Loc.Lat = 91 },
	}
	for name, mutate := range bad {
		b := good()
		mutate(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDetectorReuseMatchesFresh: a detector carried across streams by
// Reset — shorter, longer, converging and not — offers and decides
// exactly as a new detector does on each stream. The span it caches per
// stream length must not outlive the stream.
func TestDetectorReuseMatchesFresh(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 11})
	cfg := DetectorConfig{AlphaDB: 0.5, MaxReadings: 48}
	reused, err := NewDetector(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	loc := rfenv.MetroCenter.Offset(90, 6000)
	for stream := 0; stream < 40; stream++ {
		fresh, err := NewDetector(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reset()
		sigma := []float64{0.2, 1, 6}[stream%3]
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			sig := noisySignal(rng, -85, sigma)
			if got, want := reused.Offer(sig), fresh.Offer(sig); got != want {
				t.Fatalf("stream %d reading %d: converged %v, fresh detector %v", stream, i, got, want)
			}
		}
		got, err := reused.Decide(loc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Decide(loc)
		if err != nil {
			t.Fatal(err)
		}
		// Streams too short to keep anything aggregate to NaN, which !=
		// would call different.
		bits := func(d Decision) [4]uint64 {
			return [4]uint64{math.Float64bits(d.CISpanDB), math.Float64bits(d.Signal.RSSdBm),
				math.Float64bits(d.Signal.CFTdB), math.Float64bits(d.Signal.AFTdB)}
		}
		if got.Label != want.Label || got.Converged != want.Converged ||
			got.ReadingsUsed != want.ReadingsUsed || bits(got) != bits(want) {
			t.Fatalf("stream %d: %+v, fresh detector %+v", stream, got, want)
		}
	}
}
