package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/ml/kmeans"
	"github.com/wsdetect/waldo/internal/ml/svm"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// synthReadings builds a labeled synthetic channel: the east half of a
// 20 km box is occupied (high RSS, NotSafe), the west half is vacant, with
// a "pocket" of weak signal inside the occupied side that is still labeled
// NotSafe (the hidden-node geometry Waldo must learn).
func synthReadings(n int, seed int64) ([]dataset.Reading, []dataset.Label) {
	rng := rand.New(rand.NewSource(seed))
	origin := rfenv.MetroCenter
	var readings []dataset.Reading
	var labels []dataset.Label
	for i := 0; i < n; i++ {
		bearing := rng.Float64() * 360
		dist := rng.Float64() * 10000
		loc := origin.Offset(bearing, dist)
		east := loc.Lon > origin.Lon
		pocket := east && loc.DistanceM(origin.Offset(90, 5000)) < 2000

		var rss float64
		var label dataset.Label
		switch {
		case pocket:
			rss = -95 + rng.NormFloat64()
			label = dataset.LabelNotSafe // hidden node: weak RSS, protected area
		case east:
			rss = -70 + 4*rng.NormFloat64()
			label = dataset.LabelNotSafe
		default:
			rss = -102 + 2*rng.NormFloat64()
			label = dataset.LabelSafe
		}
		readings = append(readings, dataset.Reading{
			Seq:     i,
			Loc:     loc,
			Channel: 47,
			Sensor:  sensor.KindRTLSDR,
			Signal:  features.Signal{RSSdBm: rss, CFTdB: rss - 11.3, AFTdB: rss - 13},
			TrueDBm: rss,
		})
		labels = append(labels, label)
	}
	return readings, labels
}

func trainedModel(t *testing.T, cfg ConstructorConfig) (*Model, []dataset.Reading, []dataset.Label) {
	t.Helper()
	readings, labels := synthReadings(1200, 1)
	m, err := BuildModel(readings, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, readings, labels
}

func modelAccuracy(t *testing.T, m *Model, readings []dataset.Reading, labels []dataset.Label) float64 {
	t.Helper()
	correct := 0
	for i := range readings {
		got, err := m.ClassifyReading(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		if got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(readings))
}

func TestBuildModelAndClassify(t *testing.T) {
	for _, kind := range []ClassifierKind{KindSVM, KindNB, KindLinearSVM} {
		cfg := ConstructorConfig{Classifier: kind, Features: features.SetLocationRSSCFT, Seed: 2}
		m, readings, labels := trainedModel(t, cfg)
		if len(m.locals) != 1 {
			t.Fatalf("%v: localities = %d, want 1", kind, len(m.locals))
		}
		if acc := modelAccuracy(t, m, readings, labels); acc < 0.9 {
			t.Errorf("%v: training accuracy = %v", kind, acc)
		}
	}
}

func TestLocationPlusSignalBeatsLocationOnlyOnPocket(t *testing.T) {
	// The pocket inside coverage has Safe-looking RSS but NotSafe labels;
	// pure-location models can learn it spatially, but a signal-only
	// intuition ("weak RSS ⇒ safe") would get it wrong. Verify the full
	// model classifies pocket points NotSafe.
	cfg := ConstructorConfig{Classifier: KindSVM, Features: features.SetLocationRSSCFT, Seed: 3}
	m, _, _ := trainedModel(t, cfg)
	origin := rfenv.MetroCenter
	pocketCenter := origin.Offset(90, 5000)
	sig := features.Signal{RSSdBm: -95, CFTdB: -106, AFTdB: -108}
	got, err := m.Classify(pocketCenter, sig)
	if err != nil {
		t.Fatal(err)
	}
	if got != dataset.LabelNotSafe {
		t.Error("pocket point with weak RSS must classify NotSafe (hidden-node protection)")
	}
	// A weak signal on the far west side is genuinely safe.
	west := origin.Offset(270, 8000)
	got, err = m.Classify(west, features.Signal{RSSdBm: -102, CFTdB: -113, AFTdB: -115})
	if err != nil {
		t.Fatal(err)
	}
	if got != dataset.LabelSafe {
		t.Error("far vacant point must classify Safe")
	}
}

func TestClusteredModel(t *testing.T) {
	cfg := ConstructorConfig{ClusterK: 3, Classifier: KindNB, Features: features.SetLocationRSS, Seed: 4}
	m, readings, labels := trainedModel(t, cfg)
	if len(m.locals) != 3 {
		t.Fatalf("localities = %d, want 3", len(m.locals))
	}
	if acc := modelAccuracy(t, m, readings, labels); acc < 0.88 {
		t.Errorf("clustered accuracy = %v", acc)
	}
}

func TestConstantLocality(t *testing.T) {
	// All-NotSafe data: the model must degrade to a constant predictor.
	readings, _ := synthReadings(300, 5)
	labels := make([]dataset.Label, len(readings))
	for i := range labels {
		labels[i] = dataset.LabelNotSafe
	}
	m, err := BuildModel(readings, labels, ConstructorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ClassifyReading(readings[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != dataset.LabelNotSafe {
		t.Error("constant model must predict the constant class")
	}
}

func TestBuildModelValidation(t *testing.T) {
	readings, labels := synthReadings(50, 6)
	if _, err := BuildModel(nil, nil, ConstructorConfig{}); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := BuildModel(readings, labels[:10], ConstructorConfig{}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 100}); err == nil {
		t.Error("k > n must fail")
	}
	if _, err := BuildModel(readings, labels, ConstructorConfig{Classifier: 99}); err == nil {
		t.Error("bad classifier kind must fail")
	}
	if _, err := BuildModel(readings, labels, ConstructorConfig{Features: 99}); err == nil {
		t.Error("bad feature set must fail")
	}
	mixed := append([]dataset.Reading(nil), readings...)
	mixed[3].Channel = 22
	if _, err := BuildModel(mixed, labels, ConstructorConfig{}); err == nil {
		t.Error("mixed channels must fail")
	}
	// A NaN locality center is never nearest, so its area would silently
	// get its neighbours' classifiers.
	for _, loc := range []geo.Point{
		{Lat: math.NaN(), Lon: readings[3].Loc.Lon},
		{Lat: readings[3].Loc.Lat, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: readings[3].Loc.Lon},
		{Lat: readings[3].Loc.Lat, Lon: math.Inf(-1)},
		{Lat: 91, Lon: readings[3].Loc.Lon},
	} {
		bad := append([]dataset.Reading(nil), readings...)
		bad[3].Loc = loc
		if _, err := BuildModel(bad, labels, ConstructorConfig{ClusterK: 3}); err == nil {
			t.Errorf("reading at %v must fail", loc)
		}
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	for _, kind := range []ClassifierKind{KindSVM, KindNB, KindLinearSVM, KindSVMExact} {
		n := 1200
		if kind == KindSVMExact {
			n = 300 // keep SMO training quick
		}
		readings, labels := synthReadings(n, 7)
		m, err := BuildModel(readings, labels, ConstructorConfig{
			ClusterK: 2, Classifier: kind, Features: features.SetLocationRSSCFTAFT, Seed: 8,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := EncodeModel(&buf, m); err != nil {
			t.Fatalf("%v: encode: %v", kind, err)
		}
		clone, err := DecodeModel(&buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		if clone.Channel != m.Channel || clone.Sensor != m.Sensor ||
			clone.Features != m.Features || clone.Kind != m.Kind {
			t.Fatalf("%v: header mismatch", kind)
		}
		for i := 0; i < 100; i++ {
			a, err := m.ClassifyReading(readings[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := clone.ClassifyReading(readings[i])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%v: clone disagrees at reading %d", kind, i)
			}
		}
	}
}

func TestModelCodecSizes(t *testing.T) {
	// §5: the NB descriptor must be much smaller than the SVM descriptor
	// (paper: ~4 kB vs ~40 kB with OpenCV serialization).
	readings, labels := synthReadings(600, 9)
	sizes := map[ClassifierKind]int{}
	for _, kind := range []ClassifierKind{KindSVM, KindNB, KindSVMExact} {
		m, err := BuildModel(readings, labels, ConstructorConfig{Classifier: kind, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		size, err := EncodedSize(m)
		if err != nil {
			t.Fatal(err)
		}
		sizes[kind] = size
	}
	if sizes[KindNB] >= sizes[KindSVM] {
		t.Errorf("NB descriptor (%d B) should be smaller than SVM (%d B)", sizes[KindNB], sizes[KindSVM])
	}
	if sizes[KindNB] >= sizes[KindSVMExact] {
		t.Errorf("NB descriptor (%d B) should be smaller than exact SVM (%d B)", sizes[KindNB], sizes[KindSVMExact])
	}
	if sizes[KindNB] > 4096 {
		t.Errorf("NB descriptor = %d B, want ≤ 4 kB", sizes[KindNB])
	}
}

func TestDecodeModelRejectsGarbage(t *testing.T) {
	if _, err := DecodeModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage must be rejected")
	}
	if _, err := DecodeModel(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must be rejected")
	}
	// Truncated valid prefix.
	readings, labels := synthReadings(200, 11)
	m, err := BuildModel(readings, labels, ConstructorConfig{Classifier: KindNB})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeModel(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated descriptor must be rejected")
	}
}

// TestDecodeModelRejectsNonFiniteClassifier patches one value of a valid
// descriptor to +Inf, −Inf and NaN, per SVM family. A bias of +Inf scores
// every input +Inf — Safe everywhere — so the decoder a device runs
// against a server it may not trust has to refuse it, not classify. A
// NaN locality center is never nearest, so with one every place goes to
// another locality's classifier. A non-finite standardizer mean, RFF
// weight or phase, or naive-Bayes parameter makes every decision value
// it feeds infinite or NaN, and an infinite scale or variance drops its
// feature from every decision.
func TestDecodeModelRejectsNonFiniteClassifier(t *testing.T) {
	readings, labels := synthReadings(200, 11)
	// The first center follows the 37-byte header; a trained locality then
	// writes a flag byte, a u16 dimension, its means and scales, and its
	// classifier. Each family writes its bias last: SMO its coefficients
	// before it and the support vectors before those, RFF its map
	// (weights, then phases) before its linear weights; naive Bayes its
	// two log priors, a u32 dimension, then each class's means and
	// variances.
	const center, mean0 = 37, 37 + 16 + 1 + 2
	at := func(i int) func(*Model, int) int { return func(*Model, int) int { return i } }
	fromEnd := func(n int) func(*Model, int) int { return func(_ *Model, size int) int { return size - n } }
	rffRows := func(m *Model) int {
		rff, _, _, err := m.locals[len(m.locals)-1].clf.(*svm.RFFSVM).Model()
		if err != nil {
			t.Fatal(err)
		}
		rw, _ := rff.Params()
		return len(rw)
	}
	for _, tc := range []struct {
		kind ClassifierKind
		what string
		at   func(m *Model, size int) int
	}{
		{KindLinearSVM, "bias", fromEnd(8)},
		{KindLinearSVM, "last weight", fromEnd(16)},
		{KindSVM, "bias", fromEnd(8)},
		{KindSVMExact, "bias", fromEnd(8)},
		{KindSVMExact, "last coefficient", fromEnd(16)},
		{KindSVMExact, "last support-vector element", func(m *Model, size int) int {
			_, coef, _, err := m.locals[len(m.locals)-1].clf.(*svm.SMO).Model()
			if err != nil {
				t.Fatal(err)
			}
			return size - (8 + 8*len(coef) + 8)
		}},
		{KindSVM, "center x", at(center)},
		{KindNB, "center y", at(center + 8)},
		{KindLinearSVM, "first standardizer mean", at(mean0)},
		{KindLinearSVM, "first standardizer scale", func(m *Model, _ int) int { return mean0 + 8*m.Features.Dim() }},
		{KindSVM, "last RFF phase", func(m *Model, size int) int { return size - 8 - 8*rffRows(m) - 8 }},
		{KindSVM, "last RFF weight", func(m *Model, size int) int { return size - 8 - 16*rffRows(m) - 8 }},
		{KindNB, "last class-1 variance", fromEnd(8)},
		{KindNB, "last class-1 mean", func(m *Model, size int) int { return size - 8*m.Features.Dim() - 8 }},
		{KindNB, "class-0 log prior", func(m *Model, size int) int { return size - 32*m.Features.Dim() - 4 - 16 }},
	} {
		m, err := BuildModel(readings, labels, ConstructorConfig{Classifier: tc.kind})
		if err != nil {
			t.Fatal(err)
		}
		if m.locals[0].constant || m.locals[len(m.locals)-1].constant {
			t.Fatalf("%v: a constant first or last locality: the offsets assume trained ones", tc.kind)
		}
		var buf bytes.Buffer
		if err := EncodeModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()
		if _, err := DecodeModel(bytes.NewReader(valid)); err != nil {
			t.Fatalf("%v: unpatched descriptor: %v", tc.kind, err)
		}
		at := tc.at(m, len(valid))
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			patched := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(patched[at:], math.Float64bits(v))
			if _, err := DecodeModel(bytes.NewReader(patched)); err == nil {
				t.Errorf("%v: descriptor with %s = %v decoded", tc.kind, tc.what, v)
			}
		}
	}
}

// decisionValue is the score Classify compares with the margin at loc
// for sig: the deciding locality's decision value, 0 in a constant one.
func decisionValue(m *Model, loc geo.Point, sig features.Signal) (float64, error) {
	vec, err := m.Features.AppendVector(nil, m.proj.ToXY(loc), sig)
	if err != nil {
		return 0, err
	}
	idx, _ := kmeans.Nearest(m.centers, vec[:2])
	lm := &m.locals[idx]
	if lm.constant {
		return 0, nil
	}
	z := make([]float64, len(vec))
	if err := lm.std.TransformInto(z, vec); err != nil {
		return 0, err
	}
	return lm.decisionValue(z)
}

// FuzzDecodeModel: a descriptor is input a device may not trust. Whatever
// decodes has finite locality centers, and classifying a finite place
// and signal with it returns a label, not an error, from a finite
// decision value. The committed seeds (testdata/fuzz) are channel 47's
// metro SVM descriptor; it with a NaN center, with a +Inf bias and
// relabelled location+RSS (none may decode, the parent decoded two); its
// first half; and one descriptor per non-finite standardizer, RFF or
// naive-Bayes parameter (none may decode, the parent decoded each).
func FuzzDecodeModel(f *testing.F) {
	readings, labels := synthReadings(200, 11)
	for _, kind := range []ClassifierKind{KindNB, KindLinearSVM, KindSVMExact} {
		m, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 2, Classifier: kind})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeForCompare(f, m))
	}
	sig := features.Signal{RSSdBm: -90, CFTdB: -101.3, AFTdB: -103}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, c := range m.centers {
			if !finite(c[0]) || !finite(c[1]) {
				t.Fatalf("decoded locality %d with center %v", i, c)
			}
		}
		for _, loc := range []geo.Point{m.Origin, rfenv.MetroCenter, {Lat: -89.5, Lon: 179.5}} {
			if _, err := m.Classify(loc, sig); err != nil {
				t.Fatalf("decoded a model that cannot classify %v: %v", loc, err)
			}
			if v, err := decisionValue(m, loc, sig); err != nil || !finite(v) {
				t.Fatalf("decoded a model whose decision value at %v is %v (%v)", loc, v, err)
			}
		}
	})
}

func TestClassifierKindStrings(t *testing.T) {
	for _, k := range []ClassifierKind{KindSVM, KindNB, KindSVMExact, KindLinearSVM} {
		if !k.Valid() || k.String() == "" {
			t.Errorf("kind %d misbehaves", int(k))
		}
	}
	if ClassifierKind(0).Valid() || ClassifierKind(9).Valid() {
		t.Error("out-of-range kinds must be invalid")
	}
}

func TestLabelClassConversion(t *testing.T) {
	c, err := labelToClass(dataset.LabelSafe)
	if err != nil || c != 1 {
		t.Errorf("safe → %d, %v", c, err)
	}
	c, err = labelToClass(dataset.LabelNotSafe)
	if err != nil || c != -1 {
		t.Errorf("not-safe → %d, %v", c, err)
	}
	if _, err := labelToClass(dataset.Label(9)); err == nil {
		t.Error("bad label must fail")
	}
	if classToLabel(1) != dataset.LabelSafe || classToLabel(-1) != dataset.LabelNotSafe {
		t.Error("class → label broken")
	}
}

func TestSafetyMarginTradesFNForFP(t *testing.T) {
	readings, labels := synthReadings(1200, 13)
	rates := func(margin float64) (fp, fn float64) {
		m, err := BuildModel(readings, labels, ConstructorConfig{
			Classifier: KindSVM, SafetyMargin: margin, Seed: 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		var fpN, fnN, safe, notSafe int
		for i := range readings {
			got, err := m.ClassifyReading(readings[i])
			if err != nil {
				t.Fatal(err)
			}
			switch labels[i] {
			case dataset.LabelSafe:
				safe++
				if got == dataset.LabelNotSafe {
					fnN++
				}
			default:
				notSafe++
				if got == dataset.LabelSafe {
					fpN++
				}
			}
		}
		return float64(fpN) / float64(notSafe), float64(fnN) / float64(safe)
	}
	fp0, fn0 := rates(0)
	fp2, fn2 := rates(2)
	if fp2 > fp0 {
		t.Errorf("margin must not raise FP: %v -> %v", fp0, fp2)
	}
	if fn2 < fn0 {
		t.Errorf("margin should cost FN: %v -> %v", fn0, fn2)
	}
	if fp2 == fp0 && fn2 == fn0 {
		t.Error("margin had no effect at all")
	}
	if _, err := BuildModel(readings, labels, ConstructorConfig{SafetyMargin: -1}); err == nil {
		t.Error("negative margin must be rejected")
	}
}

func TestCodecCarriesSafetyMargin(t *testing.T) {
	readings, labels := synthReadings(400, 15)
	m, err := BuildModel(readings, labels, ConstructorConfig{SafetyMargin: 1.5, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	clone, err := DecodeModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a, err := m.ClassifyReading(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := clone.ClassifyReading(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("margin lost in codec: disagreement at %d", i)
		}
	}
}
