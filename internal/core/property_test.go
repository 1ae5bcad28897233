package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wsdetect/waldo/internal/dataset"
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
// a random level, with a random spread.
func randomStream(rng *rand.Rand, maxReadings int) []features.Signal {
	rss := -115 + rng.Float64()*75
	cft := rss - 8 - rng.Float64()*30
	sigma := rng.Float64() * 6
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

// TestPropertyEarlyNotSafe: over random capture streams on the nine metro
// models — random levels and spreads, random places, lengths up to the
// cap — the early NotSafe rule only ever replaces the full rule's answer
// with NotSafe, so false-safe cannot rise. The full rule is a detector
// with no place, which samples to α as every detector did before the
// rule; a detector that aggregates AFT (its decisions are uploadable)
// never stops early either, placed or not. An early stop takes no
// capture (a constant NotSafe locality) or from earlyNotSafeReadings to
// MinReadings − 1.
func TestPropertyEarlyNotSafe(t *testing.T) {
	models := metroModels(t)
	const maxReadings = 64
	lean := DetectorConfig{AlphaDB: 0.5, MinReadings: 8, MaxReadings: maxReadings}
	full := lean
	full.Features = features.SetLocationRSSCFTAFT
	var early, late int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := models[rng.Intn(len(models))]
		loc := rfenv.MetroCenter.Offset(rng.Float64()*360, rng.Float64()*12000)
		stream := randomStream(rng, maxReadings)
		decide := func(cfg DetectorConfig, placed bool) Decision {
			d, err := NewDetector(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if placed {
				d.At(loc)
			}
			return offerUntilDone(t, d, stream, loc)
		}
		ref := decide(lean, false)
		got := decide(lean, true)
		if ref.StoppedEarly {
			t.Logf("seed %d: a detector with no place stopped early: %+v", seed, ref)
			return false
		}
		for _, placed := range []bool{false, true} {
			if dec := decide(full, placed); dec.StoppedEarly || dec.Label != ref.Label ||
				dec.Converged != ref.Converged || dec.ReadingsUsed != ref.ReadingsUsed {
				t.Logf("seed %d: full set (placed %v) %+v, full rule %+v", seed, placed, dec, ref)
				return false
			}
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
			(got.ReadingsUsed < earlyNotSafeReadings || got.ReadingsUsed >= lean.MinReadings) {
			t.Logf("seed %d: early stop %+v, want NotSafe on 0 or %d to %d readings", seed, got, earlyNotSafeReadings, lean.MinReadings-1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	t.Logf("%d streams stopped early, %d did not", early, late)
	if early == 0 || late == 0 {
		t.Errorf("%d streams stopped early and %d did not: the draw misses a side of the rule", early, late)
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
	lean := DetectorConfig{AlphaDB: 0.5, MinReadings: 8, MaxReadings: maxReadings}
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
