package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml/kmeans"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// randomReadings builds a random two-class dataset from a seed.
func randomReadings(seed int64, n int) ([]dataset.Reading, []dataset.Label) {
	rng := rand.New(rand.NewSource(seed))
	origin := rfenv.MetroCenter
	readings := make([]dataset.Reading, n)
	labels := make([]dataset.Label, n)
	for i := range readings {
		rss := -105 + rng.Float64()*45
		readings[i] = dataset.Reading{
			Seq:     i,
			Loc:     origin.Offset(rng.Float64()*360, rng.Float64()*12000),
			Channel: 30,
			Sensor:  sensor.KindUSRPB200,
			Signal: features.Signal{
				RSSdBm: rss,
				CFTdB:  rss - 11.3 + rng.NormFloat64(),
				AFTdB:  rss - 13 + rng.NormFloat64(),
			},
		}
		if rss > -84 || rng.Float64() < 0.3 {
			labels[i] = dataset.LabelNotSafe
		} else {
			labels[i] = dataset.LabelSafe
		}
	}
	// Guarantee both classes.
	labels[0] = dataset.LabelSafe
	labels[1] = dataset.LabelNotSafe
	return readings, labels
}

// TestPropertyCodecRoundTrip: any trained model survives encode/decode
// with identical predictions.
func TestPropertyCodecRoundTrip(t *testing.T) {
	kinds := []ClassifierKind{KindSVM, KindNB, KindLinearSVM}
	f := func(seed int64, kindPick uint8, kPick uint8, setPick uint8) bool {
		kind := kinds[int(kindPick)%len(kinds)]
		k := 1 + int(kPick)%4
		set := features.AllSets[int(setPick)%len(features.AllSets)]
		readings, labels := randomReadings(seed, 160)
		m, err := BuildModel(readings, labels, ConstructorConfig{
			ClusterK: k, Classifier: kind, Features: set, Seed: seed,
		})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		var buf bytes.Buffer
		if err := EncodeModel(&buf, m); err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		clone, err := DecodeModel(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		for i := range readings {
			a, err := m.ClassifyReading(readings[i])
			if err != nil {
				return false
			}
			b, err := clone.ClassifyReading(readings[i])
			if err != nil {
				return false
			}
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDecoderNeverPanics: arbitrary byte soup must produce an
// error, not a panic or a hang.
func TestPropertyDecoderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, err := DecodeModel(bytes.NewReader(data))
		return err != nil // decoding random bytes must always fail cleanly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Corrupted valid descriptors too: flip one byte anywhere.
	readings, labels := randomReadings(7, 120)
	m, err := BuildModel(readings, labels, ConstructorConfig{Classifier: KindNB})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), valid...)
		pos := rng.Intn(len(corrupt))
		corrupt[pos] ^= byte(1 + rng.Intn(255))
		// Must not panic; error or a well-formed (if semantically
		// different) model are both acceptable.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on corrupted byte %d: %v", pos, r)
				}
			}()
			model, err := DecodeModel(bytes.NewReader(corrupt))
			if err == nil && model != nil {
				// Classification must still not panic.
				_, _ = model.ClassifyReading(readings[0])
			}
		}()
	}
}

// TestPropertyModelDeterminism: same inputs and seed give byte-identical
// descriptors.
func TestPropertyModelDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		readings, labels := randomReadings(seed, 150)
		encode := func() []byte {
			m, err := BuildModel(readings, labels, ConstructorConfig{
				ClusterK: 2, Classifier: KindSVM, Seed: seed,
			})
			if err != nil {
				t.Logf("build: %v", err)
				return nil
			}
			var buf bytes.Buffer
			if err := EncodeModel(&buf, m); err != nil {
				return nil
			}
			return buf.Bytes()
		}
		a := encode()
		b := encode()
		return a != nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// metroModels trains the nine metro SVM models the wsd_scan benchmark's
// device downloads.
func metroModels(t *testing.T) []*Model {
	t.Helper()
	channels := metroCampaign(t)
	models := make([]*Model, len(channels))
	for i, mc := range channels {
		m, err := BuildModel(mc.readings, mc.labels, metroConstructor(KindSVM))
		if err != nil {
			t.Fatalf("%v: %v", mc.ch, err)
		}
		models[i] = m
	}
	return models
}

// randomStream draws a capture stream of 1 to maxReadings signals around
// a random level, with a random spread: up to 6 dB, or in half the draws
// up to 0.5 dB, as quiet as a stationary device's streams, where α can
// be met and a Safe stop can settle.
func randomStream(rng *rand.Rand, maxReadings int) []features.Signal {
	rss := -115 + rng.Float64()*75
	cft := rss - 8 - rng.Float64()*30
	sigma := rng.Float64() * []float64{0.5, 6}[rng.Intn(2)]
	stream := make([]features.Signal, 1+rng.Intn(maxReadings))
	for i := range stream {
		stream[i] = features.Signal{
			RSSdBm: rss + rng.NormFloat64()*sigma,
			CFTdB:  cft + rng.NormFloat64()*sigma,
			AFTdB:  cft - 2 + rng.NormFloat64()*sigma,
		}
	}
	return stream
}

// offerUntilDone offers stream to d until d is done, asking before the
// first capture as a WSD does, and decides at loc.
func offerUntilDone(t *testing.T, d *Detector, stream []features.Signal, loc geo.Point) Decision {
	t.Helper()
	done := d.Done()
	for i := 0; !done && i < len(stream); i++ {
		done = d.Offer(stream[i])
	}
	dec, err := d.Decide(loc)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// earlyDraw is one draw of the early stop properties: a metro model, a
// random place and stream, and the lean detector's decisions on it placed
// (got) and unplaced (ref, the full rule: a detector with no place
// samples to α as every detector did before the rule).
type earlyDraw struct {
	m        *Model
	loc      geo.Point
	stream   []features.Signal
	got, ref Decision
}

// earlyLean is the lean detector the early stop properties draw for.
var earlyLean = DetectorConfig{AlphaDB: 0.5, MaxReadings: 64}

func drawEarly(t *testing.T, models []*Model, seed int64) earlyDraw {
	rng := rand.New(rand.NewSource(seed))
	dr := earlyDraw{m: models[rng.Intn(len(models))]}
	dr.loc = rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
	dr.stream = randomStream(rng, earlyLean.MaxReadings)
	dr.ref = dr.decide(t, earlyLean, false)
	dr.got = dr.decide(t, earlyLean, true)
	return dr
}

// decide offers the draw's stream to a new detector with cfg, placed at
// the draw's place or not, and decides there.
func (dr earlyDraw) decide(t *testing.T, cfg DetectorConfig, placed bool) Decision {
	d, err := NewDetector(dr.m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if placed {
		d.At(dr.loc)
	}
	return offerUntilDone(t, d, dr.stream, dr.loc)
}

// TestPropertyEarlyNotSafe: over random capture streams on the nine metro
// models — random levels and spreads, random places, lengths up to the
// cap — a lean placed detector that does not stop early answers as the
// full rule, and one that stops NotSafe takes no capture (a constant
// NotSafe locality) or from earlyStopReadings to minReadings − 1. A
// detector that aggregates AFT (its decisions are uploadable) never stops
// early, placed or not. Safe stops are TestPropertyEarlySafe's.
func TestPropertyEarlyNotSafe(t *testing.T) {
	models := metroModels(t)
	lean := earlyLean
	full := lean
	full.Features = features.SetLocationRSSCFTAFT
	var early, late int
	f := func(seed int64) bool {
		dr := drawEarly(t, models, seed)
		ref, got := dr.ref, dr.got
		if ref.StoppedEarly {
			t.Logf("seed %d: a detector with no place stopped early: %+v", seed, ref)
			return false
		}
		for _, placed := range []bool{false, true} {
			if dec := dr.decide(t, full, placed); dec.StoppedEarly || dec.Label != ref.Label ||
				dec.Converged != ref.Converged || dec.ReadingsUsed != ref.ReadingsUsed {
				t.Logf("seed %d: full set (placed %v) %+v, full rule %+v", seed, placed, dec, ref)
				return false
			}
		}
		if got.StoppedEarly && got.Label == dataset.LabelSafe {
			return true
		}
		if got.Label != dataset.LabelNotSafe && got.Label != ref.Label {
			t.Logf("seed %d: early rule %v, full rule %v", seed, got.Label, ref.Label)
			return false
		}
		if !got.StoppedEarly {
			late++
			if !sameDecision(got, ref) {
				t.Logf("seed %d: not stopped early but %+v, full rule %+v", seed, got, ref)
				return false
			}
			return true
		}
		early++
		if got.Label != dataset.LabelNotSafe || got.Converged || got.ReadingsUsed != 0 &&
			(got.ReadingsUsed < earlyStopReadings || got.ReadingsUsed >= minReadings) {
			t.Logf("seed %d: early stop %+v, want NotSafe on 0 or %d to %d readings", seed, got, earlyStopReadings, minReadings-1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	t.Logf("%d streams stopped early NotSafe, %d did not stop early", early, late)
	if early == 0 || late == 0 {
		t.Errorf("%d streams stopped early NotSafe and %d did not stop early: the draw misses a side of the rule", early, late)
	}
}

// TestPropertyEarlySafe: over the draws of TestPropertyEarlyNotSafe, every
// answer of a lean placed detector is the full rule's, NotSafe from a
// NotSafe stop, or Safe from a stop at earlyStopReadings to
// minReadings − 1 captures where, tested independently on that prefix of
// the stream (refDetector's verdict), both §5 fallback points and the
// third point say Safe and the span scaled to minReadings is within α.
// Every Safe stop is of the last kind, whatever the full rule answers: a
// Safe answer never rests on no capture nor on one point.
func TestPropertyEarlySafe(t *testing.T) {
	models := metroModels(t)
	var safe, turned, other int
	f := func(seed int64) bool {
		dr := drawEarly(t, models, seed)
		got, ref := dr.got, dr.ref
		if !got.StoppedEarly || got.Label != dataset.LabelSafe {
			other++
			if got.Label == ref.Label || got.StoppedEarly && got.Label == dataset.LabelNotSafe {
				return true
			}
			t.Logf("seed %d: %+v, full rule %+v", seed, got, ref)
			return false
		}
		safe++
		if got.Label != ref.Label {
			turned++
		}
		n := got.ReadingsUsed
		if got.Converged || n < earlyStopReadings || n >= minReadings {
			t.Logf("seed %d: Safe stop %+v, want %d to %d readings, not converged", seed, got, earlyStopReadings, minReadings-1)
			return false
		}
		d, err := NewDetector(dr.m, earlyLean)
		if err != nil {
			t.Fatal(err)
		}
		r := &refDetector{m: dr.m, cfg: d.cfg}
		r.at(dr.loc)
		for _, sig := range dr.stream[:n] {
			r.offer(sig)
		}
		if label, ok := r.verdict(); !ok || label != dataset.LabelSafe {
			t.Logf("seed %d: Safe stop at %d readings, but the prefix's verdict is %v, %v", seed, n, label, ok)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	t.Logf("%d streams stopped early Safe (%d where the full rule says NotSafe), %d did not", safe, turned, other)
	if safe == 0 || other == 0 {
		t.Errorf("%d streams stopped early Safe and %d did not: the draw misses a side of the rule", safe, other)
	}
}

// TestPropertyZeroCaptureNotSafe: at random places on the nine metro
// models, and on twins of them whose constant localities say Safe, a lean
// placed detector is done before its first capture exactly where the
// locality nearest the place is a constant NotSafe one. It then answers
// what offering any stream at that place answers, NotSafe, on no reading
// and with a decision no upload accepts. A full-set detector, placed or not,
// and an unplaced one are never done on no reading, and Reset forgets the
// place: each of them refuses to decide an empty stream.
func TestPropertyZeroCaptureNotSafe(t *testing.T) {
	models := metroModels(t)
	for _, m := range models {
		twin := *m
		twin.locals = append([]localModel(nil), m.locals...)
		for i := range twin.locals {
			twin.locals[i].constantLabel = dataset.LabelSafe
		}
		models = append(models, &twin)
	}
	const maxReadings = 64
	lean := DetectorConfig{AlphaDB: 0.5, MaxReadings: maxReadings}
	full := lean
	full.Features = features.SetLocationRSSCFTAFT
	var skipped, sampled int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := models[rng.Intn(len(models))]
		loc := rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
		stream := randomStream(rng, maxReadings)
		detector := func(cfg DetectorConfig, placed bool) *Detector {
			d, err := NewDetector(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if placed {
				d.At(loc)
			}
			return d
		}
		for _, c := range []struct {
			cfg    DetectorConfig
			placed bool
		}{{full, false}, {full, true}, {lean, false}} {
			if d := detector(c.cfg, c.placed); d.Done() {
				t.Logf("seed %d: %v detector (placed %v) done on no reading", seed, c.cfg.Features, c.placed)
				return false
			}
		}
		xy := m.proj.ToXY(loc)
		idx, _ := kmeans.Nearest(m.centers, []float64{xy.X / 1000, xy.Y / 1000})
		occupied := m.locals[idx].constant && m.locals[idx].constantLabel == dataset.LabelNotSafe
		d := detector(lean, true)
		if d.Done() != occupied {
			t.Logf("seed %d: done on no reading %v, locality %d constant NotSafe %v", seed, !occupied, idx, occupied)
			return false
		}
		if !occupied {
			sampled++
			if _, err := d.Decide(loc); err == nil {
				t.Logf("seed %d: a detector not done decided an empty stream", seed)
				return false
			}
			return true
		}
		skipped++
		got, err := d.Decide(loc)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got.Label != dataset.LabelNotSafe || !got.StoppedEarly || got.Converged || got.ReadingsUsed != 0 {
			t.Logf("seed %d: skipped channel decided %+v, want NotSafe stopped early on no reading", seed, got)
			return false
		}
		if ref := offerUntilDone(t, detector(lean, false), stream, loc); ref.Label != got.Label {
			t.Logf("seed %d: skipped %v, offering %d readings %v", seed, got.Label, ref.ReadingsUsed, ref.Label)
			return false
		}
		batch := UploadBatch{CISpanDB: got.CISpanDB, Readings: []dataset.Reading{{
			Loc: loc, Channel: 27, Sensor: sensor.KindRTLSDR, Signal: got.Signal,
		}}}
		if batch.Validate() == nil {
			t.Logf("seed %d: the upload of a skipped decision %+v was accepted", seed, got)
			return false
		}
		d.Reset()
		if d.Done() {
			t.Logf("seed %d: done on no reading after Reset", seed)
			return false
		}
		if _, err := d.Decide(loc); err == nil {
			t.Logf("seed %d: decided an empty stream after Reset", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	t.Logf("%d places skipped, %d sampled", skipped, sampled)
	if skipped == 0 || sampled == 0 {
		t.Errorf("%d places skipped and %d sampled: the draw misses a side of the rule", skipped, sampled)
	}
}

// refDetector is the placed detector with its early stop rule in naive
// form: every check classifies both §5 fallback points (and a Safe pair's
// third point) before it tests anything else, Decide classifies its
// fallback afresh, and nothing is memoised.
// TestPropertyLazyFallbackExact holds Detector to it.
type refDetector struct {
	m             *Model
	cfg           DetectorConfig // defaulted, as a Detector's
	rss, cft, aft []float64
	loc           geo.Point
	placed        bool
	occupied      bool
	stoppedLen    int
}

func (r *refDetector) reset() { *r = refDetector{m: r.m, cfg: r.cfg} }

func (r *refDetector) at(loc geo.Point) {
	label, constant := r.m.constantAt(loc)
	r.loc, r.placed, r.occupied = loc, true, constant && label == dataset.LabelNotSafe
}

func (r *refDetector) offer(sig features.Signal) bool {
	if len(r.rss) < r.cfg.MaxReadings {
		r.rss = append(r.rss, sig.RSSdBm)
		if r.cfg.Features >= features.SetLocationRSSCFT {
			r.cft = append(r.cft, sig.CFTdB)
		}
		if r.cfg.Features >= features.SetLocationRSSCFTAFT {
			r.aft = append(r.aft, sig.AFTdB)
		}
	}
	return r.done()
}

func (r *refDetector) done() bool {
	if r.converged() {
		return true
	}
	if r.stopsEarly() {
		r.stoppedLen = len(r.rss)
		return true
	}
	return false
}

func (r *refDetector) stopsEarly() bool {
	n := len(r.rss)
	if !r.placed || r.cfg.Features >= features.SetLocationRSSCFTAFT || n >= minReadings {
		return false
	}
	if r.occupied {
		return true
	}
	if n < earlyStopReadings {
		return false
	}
	_, ok := r.verdict()
	return ok
}

// verdict is the early stop rule's test on the stream from
// earlyStopReadings captures on: both §5 fallback points classify alike,
// and a Safe pair also needs a stream whose CI span scaled to minReadings
// captures is within α and a third point, the high one with CFT at its
// high percentile too, that classifies Safe.
func (r *refDetector) verdict() (dataset.Label, bool) {
	sig := r.aggregate()
	lo, hi, err := r.fallback(r.loc, sig)
	if err != nil || lo != hi {
		return 0, false
	}
	if lo == dataset.LabelNotSafe {
		return lo, true
	}
	if r.ciSpan()*math.Sqrt(float64(len(r.rss))/float64(minReadings)) > r.cfg.AlphaDB {
		return 0, false
	}
	if len(r.cft) > 0 {
		sig.RSSdBm = dsp.Percentile(r.rss, outlierHiPct)
		sig.CFTdB = dsp.Percentile(r.cft, outlierHiPct)
		if label, err := r.m.Classify(r.loc, sig); err != nil || label != dataset.LabelSafe {
			return 0, false
		}
	}
	return lo, true
}

func (r *refDetector) ciSpan() float64 {
	return dsp.MeanCI(dsp.TrimOutliers(r.rss, outlierLoPct, outlierHiPct), confidence).Span()
}

func (r *refDetector) converged() bool {
	return len(r.rss) >= minReadings && r.ciSpan() <= r.cfg.AlphaDB
}

func (r *refDetector) aggregate() features.Signal {
	robust := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.Inf(-1)
		}
		smoothed := dsp.MovingAverage(xs, smoothingWindow)
		return dsp.Mean(dsp.TrimOutliers(smoothed, outlierLoPct, outlierHiPct))
	}
	return features.Signal{RSSdBm: robust(r.rss), CFTdB: robust(r.cft), AFTdB: robust(r.aft)}
}

func (r *refDetector) decide(loc geo.Point) (Decision, error) {
	if len(r.rss) == 0 {
		if !r.stopsEarly() {
			return Decision{}, fmt.Errorf("core: no readings offered")
		}
		return Decision{Label: dataset.LabelNotSafe, StoppedEarly: true, CISpanDB: math.Inf(1), Signal: r.aggregate()}, nil
	}
	dec := Decision{
		Converged:    r.converged(),
		StoppedEarly: r.stoppedLen == len(r.rss),
		ReadingsUsed: len(r.rss),
		CISpanDB:     r.ciSpan(),
		Signal:       r.aggregate(),
	}
	if dec.Converged {
		label, err := r.m.Classify(loc, dec.Signal)
		if err != nil {
			return Decision{}, err
		}
		dec.Label = label
		return dec, nil
	}
	lo, hi, err := r.fallback(loc, dec.Signal)
	if err != nil {
		return Decision{}, err
	}
	if lo == dataset.LabelSafe && hi == dataset.LabelSafe {
		dec.Label = dataset.LabelSafe
	} else {
		dec.Label = dataset.LabelNotSafe
	}
	return dec, nil
}

func (r *refDetector) fallback(loc geo.Point, sig features.Signal) (lo, hi dataset.Label, err error) {
	loSig, hiSig := sig, sig
	loSig.RSSdBm = dsp.Percentile(r.rss, outlierLoPct)
	hiSig.RSSdBm = dsp.Percentile(r.rss, outlierHiPct)
	if lo, err = r.m.Classify(loc, loSig); err != nil {
		return 0, 0, err
	}
	if hi, err = r.m.Classify(loc, hiSig); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// TestPropertyLazyFallbackExact: the early stop check, and a Decide that
// answers a stop's verdict at its length and place, decide exactly as
// refDetector, which classifies both points at every check and in every
// Decide: same Done at every step, same decisions and errors at every
// place, Signal and CISpanDB by bits. On the nine metro models, over
// random places and streams, one detector lives through rounds that
// decide at places other than At's, offer after Done (from another level,
// so a stop's verdict can go stale), offer past MaxReadings, call At again
// without Reset, and Reset to offer a new stream.
func TestPropertyLazyFallbackExact(t *testing.T) {
	models := metroModels(t)
	const maxReadings = 16
	var reused [2]int // stops decided at their place: NotSafe, Safe
	var elsewhere, stale int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := models[rng.Intn(len(models))]
		d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5, MaxReadings: maxReadings})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refDetector{m: m, cfg: d.cfg}
		var places [3]geo.Point // At is given the first two only
		for i := range places {
			places[i] = rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
		}
		ok := true
		done := func(step string) bool {
			got, want := d.Done(), ref.done()
			if got != want {
				t.Logf("seed %d, %s: Done %v, reference %v", seed, step, got, want)
				ok = false
			}
			return got
		}
		offer := func(step string, sig features.Signal) bool {
			got, want := d.Offer(sig), ref.offer(sig)
			if got != want {
				t.Logf("seed %d, %s: Offer %v, reference %v", seed, step, got, want)
				ok = false
			}
			return got
		}
		decideAll := func(step string) {
			for _, loc := range places {
				got, err := d.Decide(loc)
				want, refErr := ref.decide(loc)
				if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
					t.Logf("seed %d, %s: error %v, reference %v", seed, step, err, refErr)
					ok = false
					continue
				}
				if !sameDecision(got, want) {
					t.Logf("seed %d, %s at %v: %+v, reference %+v", seed, step, loc, got, want)
					ok = false
				}
				switch {
				case !got.StoppedEarly || got.ReadingsUsed == 0:
				case loc == d.stoppedAt:
					reused[got.Label-dataset.LabelNotSafe]++
				default:
					elsewhere++
				}
			}
		}
		for round := 0; round < 3 && ok; round++ {
			d.Reset()
			ref.reset()
			if rng.Intn(4) > 0 {
				at := places[rng.Intn(2)]
				d.At(at)
				ref.at(at)
			}
			// Half the rounds offer the whole stream, past the cap if it
			// is longer, whatever Done says.
			whole := rng.Intn(2) == 0
			stopped := done("before the first capture")
			for _, sig := range randomStream(rng, maxReadings+8) {
				if stopped && !whole {
					break
				}
				stopped = offer("stream", sig)
			}
			decideAll("stream")
			n := d.Len()
			for _, sig := range randomStream(rng, 4) {
				offer("after Done", sig)
				decideAll("after Done")
			}
			if d.stoppedLen == n && n > 0 && d.Len() > n {
				stale++
			}
			if rng.Intn(2) == 0 {
				at := places[rng.Intn(2)]
				d.At(at)
				ref.at(at)
				done("second At")
				decideAll("second At")
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	t.Logf("stopped streams decided at the stop's place %d times NotSafe and %d Safe, elsewhere %d; %d stops offered past",
		reused[0], reused[1], elsewhere, stale)
	if reused[0] == 0 || reused[1] == 0 || elsewhere == 0 || stale == 0 {
		t.Errorf("reused NotSafe %d, Safe %d, elsewhere %d, offered past a stop %d: the draw misses a case",
			reused[0], reused[1], elsewhere, stale)
	}
}
